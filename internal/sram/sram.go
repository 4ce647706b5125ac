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
	"math"
	"math/bits"
	"slices"

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

// Array is the bit-matrix flavour used for priority matrices. Its slab
// is cut into chunks of ChunkRows rows by one 64-bit column word: chunk
// (r/ChunkRows)*rowWords + c/64 holds row r's columns c&^63 to c|63 in
// its word r%ChunkRows, and a height that is not a multiple of
// ChunkRows pads its last row of chunks. chunks slices the slab into
// that chunk table, the one layout the priority-decision kernel reads,
// so a snapshot (MatrixView) copies the chunks a write changed and
// shares the rest with the previous one. A row write touches the
// rowWords chunks of its row, a column write the chunks of its column
// word: together at most 19 of a 256×256 matrix's 64.
type Array struct {
	params   Params
	rowWords int
	bits     []uint64             //catcam:cycle-state
	chunks   []*[ChunkRows]uint64 //catcam:cycle-state
	// written has bit k set when a write has reached chunk k since the
	// last freeze that shared with a previous view, and last is the view
	// that freeze returned: SnapshotViewSharing compares only the written
	// chunks with last and takes the rest from it.
	written *bitvec.Vector
	last    *MatrixView
	stats   Stats
	// owedCycles is the cost of the writes ChargeEntryWrite charged and
	// WriteOwedColumns and WriteOwedRow have not yet performed: each
	// deferred write settles its share, and one never charged panics.
	owedCycles uint64
}

// ChunkRows is the height of a priority-matrix chunk, the unit in which
// frozen matrices share storage between epochs.
const ChunkRows = 16

// chunksPerWord is how many chunks' rows one 64-bit row vector word
// spans: the active rows of a decision, or a column write's data.
const chunksPerWord = 64 / ChunkRows

// NewArray returns a zeroed array with the given parameters.
func NewArray(p Params) *Array {
	if p.Rows <= 0 || p.Cols <= 0 {
		panic(fmt.Sprintf("sram: invalid dimensions %dx%d", p.Rows, p.Cols))
	}
	rowWords := (p.Cols + 63) / 64
	chunks := make([]*[ChunkRows]uint64, (p.Rows+ChunkRows-1)/ChunkRows*rowWords)
	bits := make([]uint64, len(chunks)*ChunkRows)
	for k := range chunks {
		chunks[k] = (*[ChunkRows]uint64)(bits[k*ChunkRows:])
	}
	return &Array{params: p, rowWords: rowWords, bits: bits, chunks: chunks, written: bitvec.New(len(chunks))}
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

// word returns the index in the slab of the word holding row r's
// columns 64*wi to 64*wi+63.
func (a *Array) word(r, wi int) int {
	return (r/ChunkRows*a.rowWords+wi)*ChunkRows + r%ChunkRows
}

// ReadRow returns a copy of row r. One cycle, one row-read energy.
func (a *Array) ReadRow(r int) *bitvec.Vector {
	a.checkRow(r)
	a.stats.Cycles++
	a.stats.RowReads++
	a.stats.EnergyFJ += a.params.ReadEnergyPJ * 1000
	row := make([]uint64, a.rowWords)
	for wi := range row {
		row[wi] = a.bits[a.word(r, wi)]
	}
	return bitvec.New(a.params.Cols).LoadWords(row)
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
	for wi, w := range v.Words() {
		a.bits[a.word(r, wi)] = w
		a.written.Set(r/ChunkRows*a.rowWords + wi)
	}
}

// WriteColumn writes column c across all rows using the dual-voltage
// scheme: the '1' bits and '0' bits of the data are written in two
// separate cycles (§V-B), independent of the number of rows. v holds one
// bit per row.
func (a *Array) WriteColumn(c int, v *bitvec.Vector) {
	a.writeColumn(c, v, 2, 0, 1)
}

// WriteColumnRowwise is the ablation path a conventional SRAM would be
// forced to take: updating a column by read-modify-writing every row.
// It costs Rows cycles and Rows write energies, demonstrating why the
// dual-voltage column write is required for O(1) insertion.
func (a *Array) WriteColumnRowwise(c int, v *bitvec.Vector) {
	rows := uint64(a.params.Rows)
	a.writeColumn(c, v, rows, rows, 0)
}

// writeColumn stores v into column c and charges the write's cost: the
// given cycles, each one write energy, and the given row and column
// write counts. The host writes a chunk's 16 rows per step, without a
// branch: it rotates the chunk's 16 bits of v so that row j's bit sits
// at the column's position, merges it into word j, and rotates the
// next row's bit in. The rows a height short of a chunk multiple pads
// get v's zero tail bits. Each chunk of the column is marked written
// for the next sharing freeze, as WriteRow marks its row's.
func (a *Array) writeColumn(c int, v *bitvec.Vector, cycles, rowWrites, colWrites uint64) {
	a.checkCol(c)
	if v.Len() != a.params.Rows {
		panic(fmt.Sprintf("sram: column height %d != %d", v.Len(), a.params.Rows))
	}
	a.stats.Cycles += cycles
	a.stats.RowWrites += rowWrites
	a.stats.ColWrites += colWrites
	a.stats.EnergyFJ += float64(cycles) * a.params.WriteEnergyPJ * 1000
	sh := uint(c % 64)
	bit := uint64(1) << sh
	src := v.Words()
	for cr, k := 0, c/64; k < len(a.chunks); cr, k = cr+1, k+a.rowWords {
		s := bits.RotateLeft64(src[cr/chunksPerWord]>>(cr%chunksPerWord*ChunkRows), int(sh))
		chunk := a.chunks[k]
		a.written.Set(k)
		for j := range chunk {
			chunk[j] = chunk[j]&^bit | s&bit
			s = bits.RotateLeft64(s, -1)
		}
	}
}

// ChargeEntryWrite charges one entry's row write (1 cycle) and
// dual-voltage column write (2 cycles), as WriteRow then WriteColumn
// would, but leaves the data to be written later: the array owes those
// 3 cycles' writes until WriteOwedColumns and WriteOwedRow perform
// them. A caller that inserts several entries before anything reads
// the array writes all their rows and columns in one pass, while every
// Stats field, the energy sum's order of additions included, moves as
// if each entry had been written at once.
func (a *Array) ChargeEntryWrite() {
	a.stats.Cycles++
	a.stats.RowWrites++
	a.stats.EnergyFJ += a.params.WriteEnergyPJ * 1000
	a.stats.Cycles += 2
	a.stats.ColWrites++
	a.stats.EnergyFJ += 2 * a.params.WriteEnergyPJ * 1000
	a.owedCycles += 3
}

// OwedCycles returns the cycles charged by ChargeEntryWrite whose
// writes are still to be performed: zero once every deferred write is.
func (a *Array) OwedCycles() uint64 { return a.owedCycles }

// checkOwed panics unless n cycles of deferred writes were charged.
func (a *Array) checkOwed(n uint64) {
	if n > a.owedCycles {
		panic(fmt.Sprintf("sram: deferred writes of %d cycles, %d charged", n, a.owedCycles))
	}
}

// WriteOwedColumns performs the deferred column writes of the columns
// set in cols (one word per 64 columns), all in one pass over the
// rows, with one masked store per row and column word: row r's bits in
// those columns become mask class[r] of the word, and its other
// columns keep their bits. masks holds the same number n of masks for
// every column word wi, mask c at masks[wi*n+c]; a mask has bits only
// in cols. Entries ranked in a sorted run see the run's lower ranks as
// a prefix, which is why one mask per class serves every row. Each
// column settles the 2 cycles ChargeEntryWrite charged for it, and
// every chunk of the columns' words is marked written, as writeColumn
// marks its column's. class covers the rows a height short of a chunk
// multiple pads too, with class 0, whose mask is empty.
func (a *Array) WriteOwedColumns(cols []uint64, class []uint16, masks []uint64) {
	if len(cols) != a.rowWords || len(class) < len(a.chunks)/a.rowWords*ChunkRows || len(masks)%a.rowWords != 0 {
		panic(fmt.Sprintf("sram: %d column words, %d row classes and %d masks for a %dx%d array",
			len(cols), len(class), len(masks), a.params.Rows, a.params.Cols))
	}
	var n uint64
	for _, w := range cols {
		n += 2 * uint64(bits.OnesCount64(w))
	}
	a.checkOwed(n)
	a.owedCycles -= n
	classes := len(masks) / a.rowWords
	for wi, cw := range cols {
		if cw == 0 {
			continue
		}
		mw, keep := masks[wi*classes:(wi+1)*classes], ^cw
		for base, k := 0, wi; k < len(a.chunks); base, k = base+ChunkRows, k+a.rowWords {
			maskChunk(a.chunks[k], (*[ChunkRows]uint16)(class[base:]), keep, mw)
			a.written.Set(k)
		}
	}
}

// maskChunk stores in each word j of chunk the bits keep keeps and mask
// cls[j] of mw.
func maskChunk(chunk *[ChunkRows]uint64, cls *[ChunkRows]uint16, keep uint64, mw []uint64) {
	for j, c := range cls {
		chunk[j] = chunk[j]&keep | mw[c]
	}
}

// WriteOwedRow performs the deferred row write of row r, storing words
// (one per 64 columns), settles the cycle ChargeEntryWrite charged for
// it and marks the row's chunks written, as WriteRow does.
func (a *Array) WriteOwedRow(r int, words []uint64) {
	a.checkRow(r)
	if len(words) != a.rowWords {
		panic(fmt.Sprintf("sram: row of %d words != %d", len(words), a.rowWords))
	}
	a.checkOwed(1)
	a.owedCycles--
	for wi, w := range words {
		a.bits[a.word(r, wi)] = w
		a.written.Set(r/ChunkRows*a.rowWords + wi)
	}
}

// Written returns a copy of the written-part record: bit k is set when
// a write has reached chunk k since the last sharing freeze. Test
// support.
func (a *Array) Written() *bitvec.Vector { return a.written.Copy() }

// Bit returns the stored bit at (r, c) without cycle accounting
// (debug/verification path, not a hardware access).
func (a *Array) Bit(r, c int) bool {
	a.checkRow(r)
	a.checkCol(c)
	return a.bits[a.word(r, c/64)]&(1<<(c%64)) != 0
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
	return columnNOR(a.params, a.chunks, dst, active, &a.stats)
}

// columnNOR is the one priority-decision kernel, shared by the live
// array and its frozen MatrixView: chunks is the chunk table of a
// square matrix (see Array), and the decision's cycle and energy land
// in st.
//
//catcam:hotpath
func columnNOR(p Params, chunks []*[ChunkRows]uint64, dst, active *bitvec.Vector, st *Stats) *bitvec.Vector {
	if active.Len() != p.Rows {
		panic(fmt.Sprintf("sram: active vector length %d != %d", active.Len(), p.Rows))
	}
	st.Cycles++
	st.NOROps++
	st.EnergyFJ += p.ComputeEnergyFJ(active.Count())

	rowWords := (p.Cols + 63) / 64
	dst.CopyFrom(active)
	for wi, w := range active.Words() {
		for w != 0 {
			// Take the active rows of one row of chunks at a time: OR
			// their words chunk by chunk, and clear each OR from dst once.
			shift := bits.TrailingZeros64(w) &^ (ChunkRows - 1)
			m := w >> shift & (1<<ChunkRows - 1)
			w &^= m << shift
			row := chunks[(wi*64+shift)/ChunkRows*rowWords:][:rowWords]
			if m == 1<<ChunkRows-1 {
				// Every row of the chunk is active, as in the all-valid
				// decision that finds a subtable's maximum.
				for cw, c := range row {
					dst.AndNotWord(cw, orChunk(c))
				}
				continue
			}
			for cw, c := range row {
				var rows uint64
				for mm := m; mm != 0; mm &= mm - 1 {
					rows |= c[bits.TrailingZeros64(mm)]
				}
				dst.AndNotWord(cw, rows)
			}
		}
	}
	return dst
}

// orChunk returns the OR of a chunk's 16 words, in a tree of four
// independent chains.
func orChunk(c *[ChunkRows]uint64) uint64 {
	return (c[0] | c[1] | c[2] | c[3]) | (c[4] | c[5] | c[6] | c[7]) |
		(c[8] | c[9] | c[10] | c[11]) | (c[12] | c[13] | c[14] | c[15])
}

// TernaryArray is the transposed-8T match matrix: Rows ternary entries
// of Cols ternary bits each, searched in parallel.
//
// Host-side it keeps two representations of the same contents. The
// row-major entries slice is the write/readback view. The bit-sliced
// pair lines are the search view: adjacent key positions 2p and 2p+1
// form pair p, and for each of the pair's four 2-bit key patterns one
// line holds, one bit per entry packed into uint64 words, the entries
// that pattern rules out — those caring at one of the two positions
// with the other value. A search thus evaluates 64 entries per word
// operation and two positions per step — the bulk bit-parallelism the
// silicon's match lines provide, applied to simulator throughput; it is
// the RAM-based CAM layout of Nguyen et al. (arXiv 1804.02330), a
// sub-key addressing a word of every entry's match bit. Searches run
// over a frozen TernaryView (view.go), which keeps only the pairs some
// stored row cares at, in the array's split order, and carries the
// bit-selection filter (filter.go) that lets a lookup skip a search
// that cannot match. Cycle and energy accounting are independent of
// which representation the host touches, and of whether it searches at
// all.
type TernaryArray struct {
	params Params
	// entries holds each row's word. An invalidated row keeps its stale
	// word, as its lines keep their bits, so the next write into the
	// row knows which pairs it must clear (sliceEntry).
	entries []ternary.Word //catcam:cycle-state
	valid   *bitvec.Vector //catcam:cycle-state
	stats   Stats
	// subarrays is how many physical subarrays one logical entry spans
	// (the prototype splits a 640-bit key over 4 160-bit subarrays); it
	// scales search energy accounting.
	subarrays int

	// planes holds the pair lines (see blockRows): pattern pat of pair p
	// in block b is the line at (b*pairs()+p)*pairWords+pat*blockWords,
	// where bit 0 of pat is the key bit at position 2p and bit 1 the key
	// bit at 2p+1. Positions follow the storage order of
	// ternary.Word.PlaneWords: position 0 is the least significant
	// (right-most) ternary bit. A row caring at neither position of a
	// pair has its bit clear in all four lines, so zeroed planes hold
	// all-wildcard rows, and an odd width's last pair, whose high
	// position no row cares at, reads the same whatever that key bit.
	planes []uint64 //catcam:cycle-state
	// stored[p] counts the stored rows caring at pair p, that is the
	// rows whose bit is set in one of its lines: valid entries, and
	// invalidated ones no write has replaced yet (Invalidate leaves the
	// planes alone). It says which pairs a view lists, so a delete
	// leaves the listing as it was. cares[pos] counts the valid entries
	// caring at pos, for the state observatory's care profile. order
	// lists every pair by falling split score (deriveOrder), derived
	// when the valid count stood at orderAt. filter counts, for the key
	// positions sel names, the valid entries compatible with each group
	// pattern. sliceEntry keeps stored exact, WriteEntry and Invalidate
	// (tally) cares and filter, and WriteEntry re-derives order. A count
	// is at most Rows, so 16 bits hold it (NewTernaryArray). All are nil
	// until the first write, so an array that never holds a rule does
	// not pay for them.
	stored []uint16
	cares  []uint16
	order  []uint16
	filter *filterCounts
	sel    *Selection
	// validCount caches valid.Count() so per-search energy accounting
	// does not re-popcount the mask.
	validCount int

	// planesWritten is set when a write has reached the planes, the
	// stored-care counts or the order since the last freeze that shared
	// with a previous view, and last is the view that freeze returned:
	// while it is clear, SnapshotViewSharing takes last's pair order and
	// lines without comparing them. orderAt (see order) sits beside the
	// flag, in its padding.
	planesWritten bool
	orderAt       uint16
	last          *TernaryView
}

// The planes are cut into blocks of blockRows entries. Within a block
// each pair owns pairWords words: its four pattern lines of blockWords
// words each, so a search step reads one line, a 32-byte load chosen by
// the key's two bits, and keeps the block's accumulator in four
// registers. Arrays of other heights pad their last block. evenBits
// holds the low position of each pair of a plane word.
const (
	blockRows  = 256
	blockWords = blockRows / 64
	pairWords  = 4 * blockWords
	evenBits   = 0x5555555555555555
)

// NewTernaryArray returns an empty match matrix of rows entries, each
// width ternary bits wide, built from physical subarrays with the given
// parameters. width must be a multiple of p.Cols; the ratio is the
// subarray count. Width and height are at most 65,535, so a frozen
// view holds pairs and counts in 16 bits. The filter starts on the
// positions SelectPositions picks from zero scores.
func NewTernaryArray(p Params, width int) *TernaryArray {
	if width <= 0 || width%p.Cols != 0 {
		panic(fmt.Sprintf("sram: width %d not a multiple of subarray cols %d", width, p.Cols))
	}
	if width > math.MaxUint16 || p.Rows > math.MaxUint16 {
		panic(fmt.Sprintf("sram: %d entries x %d positions exceeds %d on a side", p.Rows, width, math.MaxUint16))
	}
	blocks := (p.Rows + blockRows - 1) / blockRows
	return &TernaryArray{
		params:    p,
		entries:   make([]ternary.Word, p.Rows),
		valid:     bitvec.New(p.Rows),
		subarrays: width / p.Cols,
		planes:    make([]uint64, blocks*((width+1)/2)*pairWords),
		sel:       SelectPositions(width, nil),
	}
}

// Rows returns the entry capacity.
func (t *TernaryArray) Rows() int { return t.params.Rows }

// Width returns the logical entry width in ternary bits.
func (t *TernaryArray) Width() int { return t.params.Cols * t.subarrays }

// pairs returns the number of position pairs, an odd width's last
// position alone in the last.
func (t *TernaryArray) pairs() int { return (t.Width() + 1) / 2 }

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

// lineBit locates entry r in the line of pattern pat of pair p: the
// index of the word holding its bit, and the bit.
func (t *TernaryArray) lineBit(r, p, pat int) (int, uint64) {
	return (r/blockRows*t.pairs()+p)*pairWords + pat*blockWords + r%blockRows/64, 1 << (r % 64)
}

// rowPair returns entry r's bits in the four lines of pair p, bit pat
// for pattern pat.
func (t *TernaryArray) rowPair(r, p int) uint8 {
	var n uint8
	for pat := 0; pat < 4; pat++ {
		if i, bit := t.lineBit(r, p, pat); t.planes[i]&bit != 0 {
			n |= 1 << pat
		}
	}
	return n
}

// pairPatterns returns the patterns of pair p that a word with planes
// (value, care) rules out, bit pat for pattern pat: what rowPair reads
// for a row holding the word.
func pairPatterns(value, care []uint64, p int) uint8 {
	sh := uint(p%32) * 2
	c := care[p/32] >> sh & 3
	one, zero := c&(value[p/32]>>sh), c&^(value[p/32]>>sh)
	lo1, lo0, hi1, hi0 := one&1, zero&1, one>>1&1, zero>>1&1
	return uint8(lo1 | hi1 | (lo0|hi1)<<1 | (lo1|hi0)<<2 | (lo0|hi0)<<3)
}

// WriteEntry stores a ternary word in row r and marks it valid. One
// cycle (the paper's match-matrix update cost), write energy per
// spanned subarray.
//
// The array aliases w rather than copying it: words are immutable by
// convention once built (every constructor in ternary returns a fresh
// word), and the bit-sliced planes are derived from w at write time, so
// a caller mutating w afterwards would desynchronize the two views.
// A write that finds the valid count doubled or halved since the pair
// order was last derived derives it again (deriveOrder).
func (t *TernaryArray) WriteEntry(r int, w ternary.Word) {
	t.checkRow(r)
	if w.Width() != t.Width() {
		panic(fmt.Sprintf("sram: entry width %d != %d", w.Width(), t.Width()))
	}
	t.stats.Cycles++
	t.stats.RowWrites++
	t.stats.EnergyFJ += float64(t.subarrays) * t.params.WriteEnergyPJ * 1000
	if t.cares == nil {
		t.stored = make([]uint16, t.pairs())
		t.cares = make([]uint16, 2*t.pairs())
		t.order = make([]uint16, t.pairs())
		t.filter = new(filterCounts)
	}
	old := t.entries[r]
	if t.valid.Get(r) {
		t.tally(old, -1) // the previous occupant leaves
	} else {
		t.validCount++
	}
	t.entries[r] = w
	t.valid.Set(r)
	t.sliceEntry(r, old, w)
	t.tally(w, 1)
	if at := int(t.orderAt); at == 0 || t.validCount >= 2*at || 2*t.validCount <= at {
		t.deriveOrder()
	}
}

// sliceEntry scatters w's bits into the pair lines at entry column r
// over old, the word the row held (valid or stale; the zero Word if the
// row was never written), and moves the stored-care count of every pair
// whose cared-at state it flips.
//
// It works 64 positions (one word of each plane, 32 pairs) at a time,
// and within a word only over the pairs old or w cares at: outside
// them the row's bits are clear before and after. From w's care and
// value words it forms, at each pair's low bit, the four patterns' bits
// (a pattern is ruled out where its key bit differs from a cared value
// at either position), and merges each pair's four bits into its lines
// without a branch: the four words are rotated so that the pair's bit
// sits at r's, and rotated on by two per pair. The stored-care counts
// move by bit walks over the pairs w's cares flip from old's, not by a
// test per pair. It marks the planes written for the next sharing
// freeze.
//
//catcam:allow cycles "plane scatter is part of WriteEntry's single modeled write cycle"
func (t *TernaryArray) sliceEntry(r int, old, w ternary.Word) {
	t.planesWritten = true
	value, care := w.PlaneWords()
	_, held := old.PlaneWords()
	first, bit := t.lineBit(r, 0, 0)
	sh := r % 64
	for pw, c := range care {
		var was uint64
		if held != nil {
			was = held[pw]
		}
		span := c | was
		if span == 0 {
			continue
		}
		j0, j1 := bits.TrailingZeros64(span)/2, (65-bits.LeadingZeros64(span))/2
		one, zero := c&value[pw], c&^value[pw]
		lo1, lo0, hi1, hi0 := one&evenBits, zero&evenBits, one>>1&evenBits, zero>>1&evenBits
		rot := sh - 2*j0
		x0, x1 := bits.RotateLeft64(lo1|hi1, rot), bits.RotateLeft64(lo0|hi1, rot)
		x2, x3 := bits.RotateLeft64(lo1|hi0, rot), bits.RotateLeft64(lo0|hi0, rot)
		planes := t.planes
		for i, end := first+(pw*32+j0)*pairWords, first+(pw*32+j1)*pairWords; i < end; i += pairWords {
			planes[i] = planes[i]&^bit | x0&bit
			planes[i+blockWords] = planes[i+blockWords]&^bit | x1&bit
			planes[i+2*blockWords] = planes[i+2*blockWords]&^bit | x2&bit
			planes[i+3*blockWords] = planes[i+3*blockWords]&^bit | x3&bit
			x0, x1 = bits.RotateLeft64(x0, -2), bits.RotateLeft64(x1, -2)
			x2, x3 = bits.RotateLeft64(x2, -2), bits.RotateLeft64(x3, -2)
		}
		now, then := (c|c>>1)&evenBits, (was|was>>1)&evenBits
		stored := t.stored[pw*32:]
		for m := now &^ then; m != 0; m &= m - 1 {
			stored[bits.TrailingZeros64(m)/2]++
		}
		for m := then &^ now; m != 0; m &= m - 1 {
			stored[bits.TrailingZeros64(m)/2]--
		}
	}
}

// deriveOrder sorts every pair into order by falling split score
// (pairScore) and, among equal scores, most significant first, and
// records the valid count it was derived at. WriteEntry calls it only
// when that count has doubled or halved since, as the device re-picks
// the filter's positions, so a bulk load derives it a logarithmic
// number of times, a table churning at a steady size never does, and a
// delete never moves it: the pairs a view lists and their lines stay
// the previous view's.
func (t *TernaryArray) deriveOrder() {
	t.orderAt = uint16(t.validCount)
	var small [512]uint32
	keys := small[:0]
	if len(t.order) > len(small) {
		keys = make([]uint32, 0, len(t.order))
	}
	for p := range t.order {
		keys = append(keys, uint32(t.pairScore(p))<<16|uint32(p))
	}
	slices.Sort(keys)
	for i, k := range keys {
		t.order[len(keys)-1-i] = uint16(k)
	}
}

// pairScore returns pair p's split score: the least, over its four key
// patterns, of the valid entries the pattern rules out, so the entries
// a search step at the pair knocks out whatever the key. It is bit
// selection's criterion (filter.go) applied to the walk: the pairs
// that split the entries most evenly end a search soonest.
func (t *TernaryArray) pairScore(p int) int {
	var out [4]int
	pairs := len(t.order)
	valid := t.valid.Words()
	for b, vi := 0, 0; vi < len(valid); b, vi = b+1, vi+blockWords {
		l := t.planes[(b*pairs+p)*pairWords:]
		for w, v := range valid[vi:min(vi+blockWords, len(valid))] {
			for pat := range out {
				out[pat] += bits.OnesCount64(l[pat*blockWords+w] & v)
			}
		}
	}
	return min(out[0], out[1], out[2], out[3])
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

// Invalidate clears entry r (rule deletion: one cycle). Only the valid
// bit clears, as in the silicon: the planes and the row's word are left
// stale on purpose. A search starts its accumulator from the valid
// mask, so plane bits of invalid entries can never surface, and the
// next WriteEntry into the row rewrites every pair the stale word or
// the new one cares at, knowing from the stale word which. The valid
// counts drop the entry at once, so a pattern only it was compatible
// with leaves the next view's filter. The stored-care counts keep it
// until that rewrite, and the pair order moves only at a write, so the
// next view lists the same pairs in the same order over the same
// lines, and can take both from the previous view
// (SnapshotViewSharing).
func (t *TernaryArray) Invalidate(r int) {
	t.checkRow(r)
	t.stats.Cycles++
	t.stats.RowWrites++
	t.stats.EnergyFJ += t.params.WriteEnergyPJ * 1000 // single valid-bit write
	if t.valid.Get(r) {
		t.validCount--
		t.tally(t.entries[r], -1)
	}
	t.valid.Clear(r)
}

// Search broadcasts the key on the search lines and senses every match
// line, returning the match vector. One cycle; energy is (base +
// incremental per valid entry) per subarray, since every valid entry's
// match line is pre-charged regardless of outcome.
//
// The host runs it through the one search kernel, TernaryView.SearchInto,
// over a view frozen for the call, with the accounting landing in the
// array's own statistics. It allocates: the classify path searches
// published views directly and never calls it.
func (t *TernaryArray) Search(k ternary.Key) *bitvec.Vector {
	v := t.SnapshotView()
	return v.SearchInto(bitvec.New(t.params.Rows), make([]uint64, v.RowWords()), k, &t.stats)
}

// AuditSearchParity searches a freshly frozen view — the kernel lookup
// traffic runs — and the scalar reference with one key, and reports a
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

// AuditPlanes verifies the bit-sliced search state against the
// row-major write view: for every valid entry, its bits in every pair's
// four lines must equal the patterns its word rules out there; every
// pair's stored-care count must equal its recount from the lines (an
// undercount would drop a pair valid entries care at from the next
// view, so its search would match keys they reject); every position's
// care count must equal the number of valid entries caring there; the
// pair order must list every pair once (a pair it dropped would go
// unsearched); and every filter count and bitmap bit must equal its
// recount from the words (an undercount could make a lookup skip a
// subtable that matches). Returns the first divergence. Verification
// access: no cycle/energy accounting.
func (t *TernaryArray) AuditPlanes() error {
	pairs := t.pairs()
	want := &TernaryArray{sel: t.sel, cares: make([]uint16, 2*pairs), filter: new(filterCounts)}
	var err error
	t.valid.ForEach(func(r int) bool {
		value, care := t.entries[r].PlaneWords()
		for p := 0; p < pairs; p++ {
			if got, n := t.rowPair(r, p), pairPatterns(value, care, p); got != n {
				err = fmt.Errorf("sram: entry %d pair %d lines rule out patterns %04b, its stored word %04b", r, p, got, n)
				return false
			}
		}
		want.tally(t.entries[r], 1)
		return true
	})
	if err != nil || t.cares == nil { // counts exist from the first write on
		return err
	}
	for p, got := range t.stored {
		n := 0
		for i := p * pairWords; i < len(t.planes); i += pairs * pairWords {
			for w := i; w < i+blockWords; w++ {
				n += bits.OnesCount64(t.planes[w] | t.planes[w+blockWords] | t.planes[w+2*blockWords] | t.planes[w+3*blockWords])
			}
		}
		if int(got) != n {
			return fmt.Errorf("sram: pair %d stored-care count %d != %d rows whose lines are set", p, got, n)
		}
	}
	for pos := range want.cares {
		if got, n := t.cares[pos], want.cares[pos]; got != n {
			return fmt.Errorf("sram: position %d care count %d != %d valid entries caring", pos, got, n)
		}
	}
	if len(t.order) != pairs {
		return fmt.Errorf("sram: pair order lists %d pairs, not %d", len(t.order), pairs)
	}
	seen := make([]bool, pairs)
	for _, p := range t.order {
		if int(p) >= pairs {
			return fmt.Errorf("sram: pair order %v lists pair %d of %d", t.order, p, pairs)
		}
		if seen[p] {
			return fmt.Errorf("sram: pair order %v lists pair %d twice", t.order, p)
		}
		seen[p] = true
	}
	for g := range want.filter.n {
		for p, n := range want.filter.n[g] {
			if got := t.filter.n[g][p]; got != n {
				return fmt.Errorf("sram: filter group %d pattern %#02x count %d != %d compatible valid entries", g, p, got, n)
			}
		}
		if got := t.filter.set[g]; got != want.filter.set[g] {
			return fmt.Errorf("sram: filter group %d bitmap %x != %x", g, got, want.filter.set[g])
		}
	}
	return nil
}

// InjectPlaneFault flips the value entry r's lines hold at its first
// cared position, desynchronizing the bit-sliced search view from the
// row-major word — the seeded corruption the auditor tests use to prove
// the plane and parity audits fire. Flipping the value at a pair's low
// position swaps the row's bits between the patterns that differ in
// their low key bit, and at its high position between those that
// differ in their high one. Returns the flipped position, or -1 when
// the entry is invalid or fully wildcarded. Test hook only.
//
//catcam:allow cycles "deliberate corruption hook for auditor tests, not a modeled access"
func (t *TernaryArray) InjectPlaneFault(r int) int {
	t.checkRow(r)
	if !t.valid.Get(r) {
		return -1
	}
	_, care := t.entries[r].PlaneWords()
	for wi, c := range care {
		if c == 0 {
			continue
		}
		pos := wi*64 + bits.TrailingZeros64(c)
		flip := 1 << (pos % 2)
		for pat := 0; pat < 4; pat++ {
			if pat&flip != 0 {
				continue
			}
			i, bit := t.lineBit(r, pos/2, pat)
			j, _ := t.lineBit(r, pos/2, pat|flip)
			if (t.planes[i]^t.planes[j])&bit != 0 {
				t.planes[i] ^= bit
				t.planes[j] ^= bit
			}
		}
		t.planesWritten = true
		return pos
	}
	return -1
}

// InjectFilterFault takes valid entry r out of the filter count of the
// pattern it fixes in group 0, as a lost update would — the seeded
// counter skew the auditor tests use to prove AuditPlanes recounts the
// filter. Returns false when the entry is invalid. Test hook only.
func (t *TernaryArray) InjectFilterFault(r int) bool {
	t.checkRow(r)
	if !t.valid.Get(r) {
		return false
	}
	fixed, cared := t.sel.wordPatterns(t.entries[r].PlaneWords())
	t.filter.n[0][fixed[0]&cared[0]]--
	return true
}

// InjectStoredFault takes row r out of the stored-care count of the
// first pair its lines are set at, as a lost update would — the seeded
// undercount the auditor tests use to prove AuditPlanes recounts the
// stored-care counts. Returns that pair, or -1 when the row's lines
// are clear everywhere. Test hook only.
func (t *TernaryArray) InjectStoredFault(r int) int {
	t.checkRow(r)
	for p := range t.stored {
		if t.rowPair(r, p) != 0 {
			t.stored[p]--
			t.planesWritten = true
			return p
		}
	}
	return -1
}

// SearchReference is the scalar reference kernel: one Word.Match per
// valid entry, exactly the pre-bit-sliced implementation, with
// identical cycle/energy accounting. Tests assert that a view's
// SearchInto ≡ SearchReference on both the match vector and the
// statistics.
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
