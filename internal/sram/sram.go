// Package sram is a functional, cycle- and energy-accounted model of the
// customized 8T SRAM arrays CATCAM is built from.
//
// Two array flavours are modelled:
//
//   - Array: a plain bit array with the PIM extensions the paper adds —
//     multi-row bit-line NOR (the priority decision primitive, §V-A) and
//     the dual-voltage column-wise write (§V-B) that updates one column
//     in two cycles instead of one cycle per row. This hosts the local
//     and global priority matrices.
//
//   - TernaryArray: the transposed-cell match matrix (§V-C). Each entry
//     row stores a ternary word as two bit planes (the 10/01/00 encoding
//     of Fig 13); a search drives the encoded key on the search lines
//     and senses all match lines in parallel.
//
// Energy follows the paper's Table I: a search/decision costs a base
// amount (peripheral control, amortized) plus an incremental amount per
// active entry — pre-charged match lines for valid entries in the match
// matrix, pre-charged read bit-lines and driven read word-lines for
// matched entries in the priority matrix. Absolute constants are taken
// from the paper's silicon measurements (we cannot re-run SPICE); cycle
// counts and activity factors are computed by this model.
package sram

import (
	"fmt"
	"math/bits"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// Params holds the physical parameters of one array instance, following
// the paper's Table I.
type Params struct {
	Name           string
	Rows, Cols     int
	ComputeDelayPs float64 // input-to-output delay of an in-memory op
	AccessDelayPs  float64 // row-wise read/write delay
	EnergyPerBitFJ float64 // full-array compute energy per bit
	IncrementalFJ  float64 // compute energy per additionally active row
	ReadEnergyPJ   float64 // row read energy
	WriteEnergyPJ  float64 // row write energy
	AreaMM2        float64
}

// MatchMatrixParams returns Table I's match-matrix subarray parameters
// (256 entries x 160 ternary bits).
func MatchMatrixParams() Params {
	return Params{
		Name: "match-matrix", Rows: 256, Cols: 160,
		ComputeDelayPs: 585, AccessDelayPs: 461,
		EnergyPerBitFJ: 0.78, IncrementalFJ: 63.3,
		ReadEnergyPJ: 26.7, WriteEnergyPJ: 35.6,
		AreaMM2: 0.039,
	}
}

// PriorityMatrixParams returns Table I's priority-matrix parameters
// (256 x 256 bits).
func PriorityMatrixParams() Params {
	return Params{
		Name: "priority-matrix", Rows: 256, Cols: 256,
		ComputeDelayPs: 505, AccessDelayPs: 479,
		EnergyPerBitFJ: 0.59, IncrementalFJ: 148.6,
		ReadEnergyPJ: 22.7, WriteEnergyPJ: 30.3,
		AreaMM2: 0.031,
	}
}

// BaseComputeFJ returns the activity-independent part of one in-memory
// operation's energy, calibrated so that a fully-active array matches
// the per-bit figure: base + rows*incremental = perBit * rows * cols.
func (p Params) BaseComputeFJ() float64 {
	full := p.EnergyPerBitFJ * float64(p.Rows) * float64(p.Cols)
	base := full - float64(p.Rows)*p.IncrementalFJ
	if base < 0 {
		base = 0
	}
	return base
}

// ComputeEnergyFJ returns the energy of one in-memory operation with the
// given number of active rows (valid entries for a search, matched
// entries for a priority decision).
func (p Params) ComputeEnergyFJ(activeRows int) float64 {
	return p.BaseComputeFJ() + float64(activeRows)*p.IncrementalFJ
}

// Stats accumulates the operation counts, cycles and energy of an array.
type Stats struct {
	Cycles    uint64
	RowReads  uint64
	RowWrites uint64
	ColWrites uint64
	NOROps    uint64
	Searches  uint64
	EnergyFJ  float64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.RowReads += o.RowReads
	s.RowWrites += o.RowWrites
	s.ColWrites += o.ColWrites
	s.NOROps += o.NOROps
	s.Searches += o.Searches
	s.EnergyFJ += o.EnergyFJ
}

// Array is the bit-matrix flavour used for priority matrices. Row i is a
// bitvec of Cols bits.
type Array struct {
	params Params
	rows   []*bitvec.Vector //catcam:cycle-state
	stats  Stats
}

// NewArray returns a zeroed array with the given parameters.
func NewArray(p Params) *Array {
	if p.Rows <= 0 || p.Cols <= 0 {
		panic(fmt.Sprintf("sram: invalid dimensions %dx%d", p.Rows, p.Cols))
	}
	a := &Array{params: p, rows: make([]*bitvec.Vector, p.Rows)}
	for i := range a.rows {
		a.rows[i] = bitvec.New(p.Cols)
	}
	return a
}

// Params returns the array's physical parameters.
func (a *Array) Params() Params { return a.params }

// Stats returns a copy of the accumulated statistics.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the accumulated statistics.
func (a *Array) ResetStats() { a.stats = Stats{} }

func (a *Array) checkRow(r int) {
	if r < 0 || r >= a.params.Rows {
		panic(fmt.Sprintf("sram: row %d out of range [0,%d)", r, a.params.Rows))
	}
}

func (a *Array) checkCol(c int) {
	if c < 0 || c >= a.params.Cols {
		panic(fmt.Sprintf("sram: column %d out of range [0,%d)", c, a.params.Cols))
	}
}

// ReadRow returns a copy of row r. One cycle, one row-read energy.
func (a *Array) ReadRow(r int) *bitvec.Vector {
	a.checkRow(r)
	a.stats.Cycles++
	a.stats.RowReads++
	a.stats.EnergyFJ += a.params.ReadEnergyPJ * 1000
	return a.rows[r].Copy()
}

// WriteRow overwrites row r. One cycle, one row-write energy. This is
// the conventional SRAM write path, used for the new rule's own row of
// the priority matrix.
func (a *Array) WriteRow(r int, v *bitvec.Vector) {
	a.checkRow(r)
	if v.Len() != a.params.Cols {
		panic(fmt.Sprintf("sram: row width %d != %d", v.Len(), a.params.Cols))
	}
	a.stats.Cycles++
	a.stats.RowWrites++
	a.stats.EnergyFJ += a.params.WriteEnergyPJ * 1000
	a.rows[r].CopyFrom(v)
}

// WriteColumn writes column c across all rows using the dual-voltage
// scheme: the '1' bits and '0' bits of the data are written in two
// separate cycles (§V-B), independent of the number of rows. v holds one
// bit per row.
func (a *Array) WriteColumn(c int, v *bitvec.Vector) {
	a.checkCol(c)
	if v.Len() != a.params.Rows {
		panic(fmt.Sprintf("sram: column height %d != %d", v.Len(), a.params.Rows))
	}
	a.stats.Cycles += 2
	a.stats.ColWrites++
	a.stats.EnergyFJ += 2 * a.params.WriteEnergyPJ * 1000
	for r := 0; r < a.params.Rows; r++ {
		a.rows[r].SetBool(c, v.Get(r))
	}
}

// WriteColumnRowwise is the ablation path a conventional SRAM would be
// forced to take: updating a column by read-modify-writing every row.
// It costs Rows cycles and Rows write energies, demonstrating why the
// dual-voltage column write is required for O(1) insertion.
func (a *Array) WriteColumnRowwise(c int, v *bitvec.Vector) {
	a.checkCol(c)
	if v.Len() != a.params.Rows {
		panic(fmt.Sprintf("sram: column height %d != %d", v.Len(), a.params.Rows))
	}
	a.stats.Cycles += uint64(a.params.Rows)
	a.stats.RowWrites += uint64(a.params.Rows)
	a.stats.EnergyFJ += float64(a.params.Rows) * a.params.WriteEnergyPJ * 1000
	for r := 0; r < a.params.Rows; r++ {
		a.rows[r].SetBool(c, v.Get(r))
	}
}

// Bit returns the stored bit at (r, c) without cycle accounting
// (debug/verification path, not a hardware access).
func (a *Array) Bit(r, c int) bool {
	a.checkRow(r)
	a.checkCol(c)
	return a.rows[r].Get(c)
}

// ColumnNOR performs the in-memory priority decision: the read word-line
// of every row in `active` is asserted and the read bit-lines of the
// columns in `active` are pre-charged; every other bit-line is grounded.
// The sensed result is, per pre-charged column, the NOR of the activated
// rows' cells (Fig 11). One cycle; energy is base plus incremental per
// activated row.
//
// Returned vector: bit c is 1 iff c ∈ active and no activated row has a
// 1 in column c. It requires Rows == Cols (square priority matrix).
func (a *Array) ColumnNOR(active *bitvec.Vector) *bitvec.Vector {
	dst := bitvec.New(a.params.Rows)
	a.ColumnNORInto(dst, active)
	return dst
}

// ColumnNORInto is ColumnNOR writing the report into a caller-provided
// destination vector (same length as active, which it must not alias),
// so the steady-state lookup path performs no allocation. Cycle and
// energy accounting are identical to ColumnNOR.
//
//catcam:hotpath
func (a *Array) ColumnNORInto(dst, active *bitvec.Vector) *bitvec.Vector {
	if a.params.Rows != a.params.Cols {
		panic("sram: ColumnNOR requires a square array")
	}
	if active.Len() != a.params.Rows {
		panic(fmt.Sprintf("sram: active vector length %d != %d", active.Len(), a.params.Rows))
	}
	a.stats.Cycles++
	a.stats.NOROps++
	a.stats.EnergyFJ += a.params.ComputeEnergyFJ(active.Count())

	dst.CopyFrom(active)
	for wi, w := range active.Words() {
		for w != 0 {
			r := wi*64 + bits.TrailingZeros64(w)
			dst.AndNot(a.rows[r])
			w &= w - 1
		}
	}
	return dst
}

// TernaryArray is the transposed-8T match matrix: Rows ternary entries
// of Cols ternary bits each, searched in parallel.
//
// Host-side it keeps two representations of the same contents. The
// row-major entries slice is the write/readback view. The bit-sliced
// planes are the search view: for every ternary position there is one
// value plane and one care plane, each one bit per entry packed into
// uint64 words, so a search evaluates 64 entries per word operation —
// the same bulk bit-parallelism the silicon's match lines provide,
// applied to simulator throughput. Cycle and energy accounting are
// independent of which representation the host touches.
type TernaryArray struct {
	params  Params
	entries []ternary.Word //catcam:cycle-state
	valid   *bitvec.Vector //catcam:cycle-state
	stats   Stats
	// subarrays is how many physical subarrays one logical entry spans
	// (the prototype splits a 640-bit key over 4 160-bit subarrays); it
	// scales search energy accounting.
	subarrays int

	// Bit-sliced planes. rowWords is the uint64 count per plane
	// (ceil(Rows/64)); plane p for ternary position pos occupies
	// [pos*rowWords, (pos+1)*rowWords). Positions follow the storage
	// order of ternary.Word.PlaneWords: position 0 is the least
	// significant (right-most) ternary bit.
	rowWords   int
	planeValue []uint64 //catcam:cycle-state
	planeCare  []uint64 //catcam:cycle-state
	// careAny marks positions where at least one entry has ever cared —
	// all-wildcard columns (padding, flat port fields) are skipped by
	// the kernel. Bits are set on write and conservatively never
	// cleared on invalidate, which only costs a skipped optimization.
	careAny []uint64 //catcam:cycle-state
	// acc is the kernel's match accumulator scratch.
	acc []uint64
	// validCount caches valid.Count() so per-search energy accounting
	// does not re-popcount the mask.
	validCount int
}

// NewTernaryArray returns an empty match matrix of rows entries, each
// width ternary bits wide, built from physical subarrays with the given
// parameters. width must be a multiple of p.Cols; the ratio is the
// subarray count.
func NewTernaryArray(p Params, width int) *TernaryArray {
	if width <= 0 || width%p.Cols != 0 {
		panic(fmt.Sprintf("sram: width %d not a multiple of subarray cols %d", width, p.Cols))
	}
	rowWords := (p.Rows + 63) / 64
	return &TernaryArray{
		params:     p,
		entries:    make([]ternary.Word, p.Rows),
		valid:      bitvec.New(p.Rows),
		subarrays:  width / p.Cols,
		rowWords:   rowWords,
		planeValue: make([]uint64, width*rowWords),
		planeCare:  make([]uint64, width*rowWords),
		careAny:    make([]uint64, (width+63)/64),
		acc:        make([]uint64, rowWords),
	}
}

// Rows returns the entry capacity.
func (t *TernaryArray) Rows() int { return t.params.Rows }

// Width returns the logical entry width in ternary bits.
func (t *TernaryArray) Width() int { return t.params.Cols * t.subarrays }

// Subarrays returns the physical subarray count per entry.
func (t *TernaryArray) Subarrays() int { return t.subarrays }

// Params returns the per-subarray physical parameters.
func (t *TernaryArray) Params() Params { return t.params }

// Stats returns a copy of the accumulated statistics.
func (t *TernaryArray) Stats() Stats { return t.stats }

// ResetStats zeroes the accumulated statistics.
func (t *TernaryArray) ResetStats() { t.stats = Stats{} }

// ValidCount returns the number of valid entries.
func (t *TernaryArray) ValidCount() int { return t.validCount }

// IsValid reports whether entry r holds a rule.
func (t *TernaryArray) IsValid(r int) bool { return t.valid.Get(r) }

// FirstFree returns the lowest invalid row, or -1 if full. Word-wise
// first-zero scan: 64 rows per step instead of one Get per row.
func (t *TernaryArray) FirstFree() int {
	return t.valid.FirstZero()
}

func (t *TernaryArray) checkRow(r int) {
	if r < 0 || r >= t.params.Rows {
		panic(fmt.Sprintf("sram: entry %d out of range [0,%d)", r, t.params.Rows))
	}
}

// WriteEntry stores a ternary word in row r and marks it valid. One
// cycle (the paper's match-matrix update cost), write energy per
// spanned subarray.
//
// The array aliases w rather than copying it: words are immutable by
// convention once built (every constructor in ternary returns a fresh
// word), and the bit-sliced planes are derived from w at write time, so
// a caller mutating w afterwards would desynchronize the two views.
func (t *TernaryArray) WriteEntry(r int, w ternary.Word) {
	t.checkRow(r)
	if w.Width() != t.Width() {
		panic(fmt.Sprintf("sram: entry width %d != %d", w.Width(), t.Width()))
	}
	t.stats.Cycles++
	t.stats.RowWrites++
	t.stats.EnergyFJ += float64(t.subarrays) * t.params.WriteEnergyPJ * 1000
	t.entries[r] = w
	if !t.valid.Get(r) {
		t.validCount++
	}
	t.valid.Set(r)
	t.sliceEntry(r, w)
}

// sliceEntry scatters w's (value, care) bit pairs into the transposed
// planes at entry column r. Every position is written — set or cleared
// — so stale planes from a previous occupant cannot survive.
//
//catcam:allow cycles "plane scatter is part of WriteEntry's single modeled write cycle"
func (t *TernaryArray) sliceEntry(r int, w ternary.Word) {
	value, care := w.PlaneWords()
	wi, bit := r/64, uint64(1)<<(r%64)
	width := t.Width()
	for pos := 0; pos < width; pos++ {
		pw, pb := pos/64, uint(pos%64)
		i := pos*t.rowWords + wi
		if value[pw]&(1<<pb) != 0 {
			t.planeValue[i] |= bit
		} else {
			t.planeValue[i] &^= bit
		}
		if care[pw]&(1<<pb) != 0 {
			t.planeCare[i] |= bit
			t.careAny[pw] |= 1 << pb
		} else {
			t.planeCare[i] &^= bit
		}
	}
}

// ReadEntry reads back entry r (used when a rule is reallocated between
// subtables). One cycle, read energy per subarray. The returned word
// aliases the stored one and must be treated as immutable.
func (t *TernaryArray) ReadEntry(r int) (ternary.Word, bool) {
	t.checkRow(r)
	t.stats.Cycles++
	t.stats.RowReads++
	t.stats.EnergyFJ += float64(t.subarrays) * t.params.ReadEnergyPJ * 1000
	if !t.valid.Get(r) {
		return ternary.Word{}, false
	}
	return t.entries[r], true
}

// EntryWord returns the stored word of entry r without cycle or energy
// accounting (debug/verification path, not a hardware access). The word
// aliases the stored one and must be treated as immutable.
func (t *TernaryArray) EntryWord(r int) (ternary.Word, bool) {
	t.checkRow(r)
	if !t.valid.Get(r) {
		return ternary.Word{}, false
	}
	return t.entries[r], true
}

// Invalidate clears entry r (rule deletion: one cycle). The planes are
// left stale on purpose: the kernel starts its accumulator from the
// valid mask, so plane bits of invalid entries can never surface, and
// the next WriteEntry into the row rewrites every position.
func (t *TernaryArray) Invalidate(r int) {
	t.checkRow(r)
	t.stats.Cycles++
	t.stats.RowWrites++
	t.stats.EnergyFJ += t.params.WriteEnergyPJ * 1000 // single valid-bit write
	if t.valid.Get(r) {
		t.validCount--
	}
	t.valid.Clear(r)
	t.entries[r] = ternary.Word{}
}

// Search broadcasts the key on the search lines and senses every match
// line, returning the match vector. One cycle; energy is (base +
// incremental per valid entry) per subarray, since every valid entry's
// match line is pre-charged regardless of outcome.
func (t *TernaryArray) Search(k ternary.Key) *bitvec.Vector {
	m := bitvec.New(t.params.Rows)
	t.SearchInto(m, k)
	return m
}

// SearchInto is Search depositing the match vector into a
// caller-provided vector of Rows bits, allocation-free. Accounting is
// identical to Search.
//
//catcam:hotpath
func (t *TernaryArray) SearchInto(dst *bitvec.Vector, k ternary.Key) *bitvec.Vector {
	if k.Width() != t.Width() {
		panic(fmt.Sprintf("sram: key width %d != %d", k.Width(), t.Width()))
	}
	t.stats.Cycles++
	t.stats.Searches++
	t.stats.EnergyFJ += float64(t.subarrays) * t.params.ComputeEnergyFJ(t.validCount)

	// Bit-sliced kernel: acc starts as the valid mask; each cared-for
	// position knocks out the entries whose stored value disagrees with
	// the broadcast key bit. 64 entries per word op. Positions are
	// walked most significant first: the discriminating bits (IP
	// prefixes) sit at the top of the encoded key, so the accumulator
	// usually empties within a few planes; careAny words skip
	// all-wildcard columns (padding, flat port fields) outright.
	acc := t.acc
	copy(acc, t.valid.Words())
	if t.rowWords == 4 {
		kernel4(k.Words(), acc, t.planeValue, t.planeCare, t.careAny)
	} else {
		kernelN(k.Words(), acc, t.planeValue, t.planeCare, t.careAny, t.rowWords)
	}
	return dst.LoadWords(acc)
}

// kernel4 is the match kernel specialized for 256-entry subtables
// (four accumulator words, the paper's geometry): the accumulator
// stays in registers across the whole search. It is a free function
// over raw plane slices so the live array and the immutable snapshot
// views (view.go) share one kernel.
//
//catcam:hotpath
func kernel4(kw, acc, pv, pc, careAny []uint64) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for pw := len(careAny) - 1; pw >= 0; pw-- {
		ca := careAny[pw]
		if ca == 0 {
			continue
		}
		kword := kw[pw]
		for ca != 0 {
			pb := 63 - bits.LeadingZeros64(ca)
			ca &^= 1 << uint(pb)
			bcast := uint64(0)
			if kword&(1<<uint(pb)) != 0 {
				bcast = ^uint64(0)
			}
			base := (pw*64 + pb) * 4
			a0 &^= (pv[base] ^ bcast) & pc[base]
			a1 &^= (pv[base+1] ^ bcast) & pc[base+1]
			a2 &^= (pv[base+2] ^ bcast) & pc[base+2]
			a3 &^= (pv[base+3] ^ bcast) & pc[base+3]
			if a0|a1|a2|a3 == 0 {
				acc[0], acc[1], acc[2], acc[3] = 0, 0, 0, 0
				return
			}
		}
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// kernelN is the generic-width match kernel.
//
//catcam:hotpath
func kernelN(kw, acc, pv, pc, careAny []uint64, rw int) {
	for pw := len(careAny) - 1; pw >= 0; pw-- {
		ca := careAny[pw]
		if ca == 0 {
			continue
		}
		kword := kw[pw]
		for ca != 0 {
			pb := 63 - bits.LeadingZeros64(ca)
			ca &^= 1 << uint(pb)
			bcast := uint64(0)
			if kword&(1<<uint(pb)) != 0 {
				bcast = ^uint64(0)
			}
			base := (pw*64 + pb) * rw
			live := uint64(0)
			for i := 0; i < rw; i++ {
				acc[i] &^= (pv[base+i] ^ bcast) & pc[base+i]
				live |= acc[i]
			}
			if live == 0 {
				return
			}
		}
	}
}

// AuditSearchParity re-runs one search through both kernels — the
// bit-sliced production path and the scalar reference — and reports a
// non-nil error when their match vectors disagree. The array statistics
// are snapshotted and restored around the probe, so audit traffic never
// pollutes the cycle/energy accounting the paper's experiments read.
// This is a verification access, not a modeled hardware operation; it
// allocates and is meant for sampled background sweeps.
func (t *TernaryArray) AuditSearchParity(k ternary.Key) error {
	saved := t.stats
	sliced := t.Search(k)
	ref := t.SearchReference(k)
	t.stats = saved
	if !sliced.Equal(ref) {
		return fmt.Errorf("sram: bit-sliced search %s != scalar reference %s", sliced, ref)
	}
	return nil
}

// AuditPlanes verifies the bit-sliced search view against the row-major
// write view: for every valid entry, the stored (value, care) plane
// bits must equal the planes re-derived from the entry's word, and
// every cared position must be marked in careAny (a cleared careAny bit
// would make the kernel skip a discriminating column). Returns the
// first divergence. Verification access: no cycle/energy accounting.
func (t *TernaryArray) AuditPlanes() error {
	var err error
	t.valid.ForEach(func(r int) bool {
		value, care := t.entries[r].PlaneWords()
		wi, bit := r/64, uint64(1)<<(r%64)
		width := t.Width()
		for pos := 0; pos < width; pos++ {
			pw, pb := pos/64, uint(pos%64)
			i := pos*t.rowWords + wi
			wantValue := value[pw]&(1<<pb) != 0
			wantCare := care[pw]&(1<<pb) != 0
			if got := t.planeValue[i]&bit != 0; got != wantValue {
				err = fmt.Errorf("sram: entry %d position %d value plane %v != stored word %v",
					r, pos, got, wantValue)
				return false
			}
			if got := t.planeCare[i]&bit != 0; got != wantCare {
				err = fmt.Errorf("sram: entry %d position %d care plane %v != stored word %v",
					r, pos, got, wantCare)
				return false
			}
			if wantCare && t.careAny[pw]&(1<<pb) == 0 {
				err = fmt.Errorf("sram: entry %d cares at position %d but careAny is clear", r, pos)
				return false
			}
		}
		return true
	})
	return err
}

// InjectPlaneFault flips the value-plane bit of entry r at its first
// cared position, desynchronizing the bit-sliced search view from the
// row-major word — the seeded corruption the auditor tests use to prove
// the plane and parity audits fire. Returns the flipped position, or -1
// when the entry is invalid or fully wildcarded. Test hook only.
//
//catcam:allow cycles "deliberate corruption hook for auditor tests, not a modeled access"
func (t *TernaryArray) InjectPlaneFault(r int) int {
	t.checkRow(r)
	if !t.valid.Get(r) {
		return -1
	}
	wi, bit := r/64, uint64(1)<<(r%64)
	for pos := 0; pos < t.Width(); pos++ {
		if t.planeCare[pos*t.rowWords+wi]&bit != 0 {
			t.planeValue[pos*t.rowWords+wi] ^= bit
			return pos
		}
	}
	return -1
}

// SearchReference is the scalar reference kernel: one Word.Match per
// valid entry, exactly the pre-bit-sliced implementation, with
// identical cycle/energy accounting. Tests assert SearchInto ≡
// SearchReference on both the match vector and the statistics.
func (t *TernaryArray) SearchReference(k ternary.Key) *bitvec.Vector {
	if k.Width() != t.Width() {
		panic(fmt.Sprintf("sram: key width %d != %d", k.Width(), t.Width()))
	}
	t.stats.Cycles++
	t.stats.Searches++
	t.stats.EnergyFJ += float64(t.subarrays) * t.params.ComputeEnergyFJ(t.valid.Count())

	m := bitvec.New(t.params.Rows)
	t.valid.ForEach(func(r int) bool {
		if t.entries[r].Match(k) {
			m.Set(r)
		}
		return true
	})
	return m
}
