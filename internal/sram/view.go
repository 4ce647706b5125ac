package sram

import (
	"fmt"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// This file holds the immutable read-side views of the two array
// flavours. A view is a frozen copy of exactly the state a search
// touches — bit-sliced pair lines and the valid mask for the ternary
// array, the row-bit chunks for a priority matrix — built under the
// writer's lock by SnapshotViewSharing and then shared, unsynchronized,
// by any number of concurrent readers. Every part is either copied out
// of the array at construction or taken from an earlier view of the
// same array whose contents it equals: a view never aliases live array
// storage, so an in-place update to the array can never tear a reader
// traversing an already-published view.
//
// Views carry no Stats of their own (they are shared across
// goroutines); search and decision accounting accumulates into a
// caller-provided *Stats, which the read path keeps in per-goroutine
// scratch and flushes to device-level atomics per batch.

// TernaryView is an immutable snapshot of a TernaryArray's search
// state, compacted and ordered for the search kernel: rows and width
// are the array's entry count and key width; walk holds the pairs the
// kernel visits and their lines (careLines), held inline so a search
// reaches them without another load; counts holds, for each listed
// pair, how many valid entries care at its low position and at its
// high one; valid is the valid mask, padded to whole blocks. filter is
// the bit-selection filter's bitmap (filter.go) for the positions sel
// names, held inline so freezing it allocates nothing. searchFJ is the
// energy one search of the view is charged. All fields are written
// only at construction; walk's slices may be shared with other views
// of the same array.
//
//catcam:snapshot
type TernaryView struct {
	rows       int
	width      int
	walk       careLines
	counts     []uint16
	valid      []uint64
	filter     filterBitmap
	sel        *Selection
	validCount int
	searchFJ   float64
}

// careLines is what a search walks: order lists the pairs at least one
// stored row cares at (a valid entry, or an invalidated one whose lines
// no write has replaced yet), in the array's split order; lines holds,
// block by block (see blockRows), the four pattern lines of each listed
// pair in that order. Pairs no stored row cares at match every entry
// and are dropped. A search starts from the valid mask, so the lines of
// invalidated rows never surface, and listing by stored rows in an
// order only a write moves lets a delete leave order and lines as they
// were. Fields are written only at construction.
//
//catcam:snapshot
type careLines struct {
	order []uint16
	lines []uint64
}

// SnapshotView freezes the array's current search state into an
// immutable view. Every line is copied; the returned view stays valid
// (and constant) across later writes to the array. Not a modeled
// hardware access: no cycle or energy accounting. It neither reads nor
// clears the written-part record SnapshotViewSharing keeps, so an audit
// may freeze the array between publishes.
func (t *TernaryArray) SnapshotView() *TernaryView {
	return t.SnapshotViewSharing(nil)
}

// SnapshotViewSharing is SnapshotView that takes the pair order and the
// line slab from prev (the previous view of this array, or nil) when
// they are still the array's: when prev lists the pairs the array's
// order and stored-care counts give now and every line it holds equals
// the live one. A delete changes neither, so its view copies only the
// valid mask, the counts and the filter bitmap. Contents decide: a
// shared view is byte-identical to a fresh freeze. The written-part
// record names the candidates: when prev is the view the last such
// freeze returned and no write has reached the planes since, prev's
// order and lines are the array's without a compare. Any other prev is
// compared in full. A non-nil prev makes the returned view the
// record's.
func (t *TernaryArray) SnapshotViewSharing(prev *TernaryView) *TernaryView {
	var walk careLines
	switch {
	case prev == nil || prev.rows != t.params.Rows || prev.width != t.Width():
		walk = t.freezeLines()
	case prev == t.last && !t.planesWritten,
		t.isListed(prev.walk.order) && t.linesEqual(prev.walk):
		walk = prev.walk
	default:
		walk = t.freezeLines()
	}
	counts := make([]uint16, 2*len(walk.order))
	for i, p := range walk.order {
		counts[2*i], counts[2*i+1] = t.cares[2*p], t.cares[2*p+1]
	}
	valid := make([]uint64, len(t.planes)/(t.pairs()*pairWords)*blockWords)
	copy(valid, t.valid.Words())
	v := &TernaryView{
		rows:       t.params.Rows,
		width:      t.Width(),
		walk:       walk,
		counts:     counts,
		valid:      valid,
		filter:     t.filterSet(),
		sel:        t.sel,
		validCount: t.validCount,
		searchFJ:   float64(t.subarrays) * t.params.ComputeEnergyFJ(t.validCount),
	}
	if prev != nil {
		t.last, t.planesWritten = v, false
	}
	return v
}

// freezeLines copies the pairs stored rows care at, in the array's
// order, and their lines out of the planes.
func (t *TernaryArray) freezeLines() careLines {
	n := 0
	for _, c := range t.stored {
		if c > 0 {
			n++
		}
	}
	order, i := make([]uint16, n), 0
	for _, p := range t.order {
		if t.stored[p] > 0 {
			order[i] = p
			i++
		}
	}
	pairs := t.pairs()
	lines := make([]uint64, len(t.planes)/pairs*n)
	for b := 0; b*pairs*pairWords < len(t.planes); b++ {
		for i, p := range order {
			from, to := (b*pairs+int(p))*pairWords, (b*n+i)*pairWords
			copy(lines[to:to+pairWords], t.planes[from:from+pairWords])
		}
	}
	return careLines{order: order, lines: lines}
}

// isListed reports whether order is what freezeLines would list now,
// without building it: the pairs of the array's order that stored rows
// care at, in that order.
func (t *TernaryArray) isListed(order []uint16) bool {
	i := 0
	for _, p := range t.order {
		if t.stored[p] == 0 {
			continue
		}
		if i == len(order) || order[i] != p {
			return false
		}
		i++
	}
	return i == len(order)
}

// linesEqual reports whether every line of w equals the live planes at
// the pair it is listed for.
func (t *TernaryArray) linesEqual(w careLines) bool {
	pairs, n := t.pairs(), len(w.order)
	for b := 0; b*pairs*pairWords < len(t.planes); b++ {
		for i, p := range w.order {
			from, at := (b*pairs+int(p))*pairWords, (b*n+i)*pairWords
			if *(*[pairWords]uint64)(t.planes[from:]) != *(*[pairWords]uint64)(w.lines[at:]) {
				return false
			}
		}
	}
	return true
}

// SharesSearchState reports whether v and o hold the same pair order
// and line slab in memory, not merely equal ones: what a freeze that
// took both from the previous view hands back. Test support.
func (v *TernaryView) SharesSearchState(o *TernaryView) bool {
	return sameBacking(v.walk.order, o.walk.order) && sameBacking(v.walk.lines, o.walk.lines)
}

// sameBacking reports whether a and b are the same slice of the same
// array.
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Rows returns the entry capacity.
func (v *TernaryView) Rows() int { return v.rows }

// RowWords returns the accumulator length SearchInto requires.
func (v *TernaryView) RowWords() int { return (v.rows + 63) / 64 }

// ValidCount returns the number of valid entries at snapshot time.
func (v *TernaryView) ValidCount() int { return v.validCount }

// Width returns the ternary key width (positions) the view matches.
func (v *TernaryView) Width() int { return v.width }

// CareCount returns the number of cared (non-wildcard) ternary
// positions summed over the valid entries. Paired with ValidCount and
// Width it yields the view's care-bit density: CareCount divided by
// ValidCount*Width; the complement is the wildcard density.
//
//catcam:hotpath
func (v *TernaryView) CareCount() uint64 {
	var cared uint64
	for _, c := range v.counts {
		cared += uint64(c)
	}
	return cared
}

// CarePerPosition appends, for each ternary position (bit plane), the
// number of valid entries that care at that position, and returns the
// extended slice — the per-plane care profile the state observatory
// exports. Passing a reused dst[:0] keeps the call allocation-free.
func (v *TernaryView) CarePerPosition(dst []uint64) []uint64 {
	base := len(dst)
	for pos := 0; pos < v.Width(); pos++ {
		dst = append(dst, 0)
	}
	for i, p := range v.walk.order {
		for half, pos := range [2]int{2 * int(p), 2*int(p) + 1} {
			if pos < v.Width() {
				dst[base+pos] = uint64(v.counts[2*i+half])
			}
		}
	}
	return dst
}

// Charge accounts one search of the view into st, the caller's private
// accumulator: one cycle, one search, and (base + incremental per valid
// entry) energy per subarray, since the silicon pre-charges every
// valid entry's match line whatever the outcome; the view works that
// energy out once, at construction. SearchInto charges
// through it, and so does a lookup that skips a search the filter
// rules out, so the model cannot tell the two apart.
//
//catcam:hotpath
func (v *TernaryView) Charge(st *Stats) {
	st.Cycles++
	st.Searches++
	st.EnergyFJ += v.searchFJ
}

// SearchInto is the one match kernel: it searches the frozen lines with
// key k, depositing the match vector into dst (Rows bits). acc is the
// caller's accumulator scratch of RowWords length — the view is shared
// between goroutines, so it cannot own one. The search is charged to
// st (Charge).
//
// Each block's accumulator starts as its valid mask and lives in four
// registers. A step at a listed pair reads the key's two bits there
// with one shift, as a pattern index, and clears the entries the line
// of that pattern rules out: one 32-byte load and four and-nots for two
// positions, without a branch. The walk takes the pairs two at a time
// and leaves a block when its accumulator empties, tested once per two
// pairs (one test and branch for four positions, 12 % faster on the
// rung below than a test per pair), which the pairs that split the
// entries most evenly, listed first, bring about soonest. On the
// lookup rungs' traffic (ACL-5K table seed 5 in a Compact device,
// 16,384 PacketTrace headers at locality 0.8, the 206,244 searches the
// filter admits) a search reads 21.1 of 52.9 listed pairs, where the
// walk by single positions in falling care order read 45.9 of 106; on
// table seed 1, 22.3 of 53.0 (DESIGN.md §8).
//
//catcam:hotpath
func (v *TernaryView) SearchInto(dst *bitvec.Vector, acc []uint64, k ternary.Key, st *Stats) *bitvec.Vector {
	if k.Width() != v.Width() {
		panic(fmt.Sprintf("sram: key width %d != %d", k.Width(), v.Width()))
	}
	acc = acc[:v.RowWords()]
	v.Charge(st)

	kw := k.Words()
	order := v.walk.order
	n := len(order)
	for b := 0; b*blockWords < len(v.valid); b++ {
		vw := (*[blockWords]uint64)(v.valid[b*blockWords:])
		a0, a1, a2, a3 := vw[0], vw[1], vw[2], vw[3]
		lines := v.walk.lines[b*n*pairWords:]
		i := 0
		for ; i+1 < n && a0|a1|a2|a3 != 0; i += 2 {
			l := (*[2 * pairWords]uint64)(lines[i*pairWords:])
			p, q := order[i], order[i+1]
			at := kw[p>>5] >> (p & 31 * 2) & 3 * blockWords
			bt := kw[q>>5]>>(q&31*2)&3*blockWords + pairWords
			a0 &^= l[at] | l[bt]
			a1 &^= l[at+1] | l[bt+1]
			a2 &^= l[at+2] | l[bt+2]
			a3 &^= l[at+3] | l[bt+3]
		}
		if i < n && a0|a1|a2|a3 != 0 {
			p := order[i]
			l := (*[pairWords]uint64)(lines[i*pairWords:])
			at := kw[p>>5] >> (p & 31 * 2) & 3 * blockWords
			a0 &^= l[at]
			a1 &^= l[at+1]
			a2 &^= l[at+2]
			a3 &^= l[at+3]
		}
		if w := acc[b*blockWords:]; len(w) >= blockWords {
			w[0], w[1], w[2], w[3] = a0, a1, a2, a3
		} else { // the short last block of an array whose height is not a multiple of blockRows
			block := [blockWords]uint64{a0, a1, a2, a3}
			copy(w, block[:])
		}
	}
	return dst.LoadWords(acc)
}

// ListedPairs returns how many pairs the view lists: the longest walk
// a search can take in one block. Test support.
func (v *TernaryView) ListedPairs() int { return len(v.walk.order) }

// WalkSteps returns how many pairs SearchInto reads for key k, summed
// over the blocks: the walk's length, which the kernel's time follows.
// Like the kernel it tests the accumulator every second pair. Test
// support.
func (v *TernaryView) WalkSteps(k ternary.Key) int {
	kw := k.Words()
	n, steps := len(v.walk.order), 0
	for b := 0; b*blockWords < len(v.valid); b++ {
		acc := *(*[blockWords]uint64)(v.valid[b*blockWords:])
		for i := 0; i < n && acc != [blockWords]uint64{}; i += 2 {
			for j := i; j < min(i+2, n); j++ {
				p := v.walk.order[j]
				pat := int(kw[p>>5] >> (p & 31 * 2) & 3)
				for w := range acc {
					acc[w] &^= v.walk.lines[(b*n+j)*pairWords+pat*blockWords+w]
				}
				steps++
			}
		}
	}
	return steps
}

// MatrixView is an immutable snapshot of a square priority matrix: the
// array's chunk table (see Array), each chunk either copied when the
// view was frozen or shared with the previous view of the matrix. All
// fields are written only at construction, and nothing writes a chunk
// once a view holds it.
//
//catcam:snapshot
type MatrixView struct {
	params Params
	chunks []*[ChunkRows]uint64
}

// SnapshotView freezes the matrix's current contents into an immutable
// view holding a copy of every chunk; later WriteRow/WriteColumn calls
// on the array cannot reach it. Not a modeled hardware access. It
// neither reads nor clears the written-part record SnapshotViewSharing
// keeps.
func (a *Array) SnapshotView() *MatrixView {
	return a.freeze(nil, false)
}

// SnapshotViewSharing is SnapshotView that shares with prev (the
// previous view of the matrix, or nil) every chunk whose contents are
// unchanged, copying only the chunks a write changed, and returns prev
// itself when none did — a delete never writes the matrix, and an
// insert's row and column writes change at most 19 of a 256×256
// matrix's 64 chunks. Contents decide, so a view that shares is
// byte-identical to a fresh freeze. The written-part record names the
// candidates: when prev is the view the last such freeze returned,
// only the chunks written since are compared, and every other chunk is
// prev's unread. Any other prev is compared chunk by chunk in full. A
// non-nil prev makes the returned view the record's.
func (a *Array) SnapshotViewSharing(prev *MatrixView) *MatrixView {
	if prev == nil || prev.params != a.params {
		return a.SnapshotView()
	}
	v := a.freeze(prev, prev == a.last)
	a.written.Reset()
	a.last = v
	return v
}

// freeze returns the view of the live chunks over prev (nil for none):
// prev's table with a copy of each chunk that differs from prev's, or
// prev itself when none does. trusted compares only the chunks written
// since the last sharing freeze, prev being the view it returned.
func (a *Array) freeze(prev *MatrixView, trusted bool) *MatrixView {
	if a.params.Rows != a.params.Cols {
		panic("sram: MatrixView requires a square array")
	}
	var chunks []*[ChunkRows]uint64
	for k := a.candidate(trusted, 0); k < len(a.chunks); k = a.candidate(trusted, k+1) {
		live := a.chunks[k]
		if prev != nil && *prev.chunks[k] == *live {
			continue
		}
		if chunks == nil {
			chunks = make([]*[ChunkRows]uint64, len(a.chunks))
			if prev != nil {
				copy(chunks, prev.chunks)
			}
		}
		c := *live
		chunks[k] = &c
	}
	if chunks == nil {
		return prev
	}
	return &MatrixView{params: a.params, chunks: chunks}
}

// candidate returns the first chunk at or after k that a freeze must
// compare: k itself unless the written-part record is trusted, the next
// chunk written since the last sharing freeze if it is, and
// len(a.chunks) when none is left.
func (a *Array) candidate(trusted bool, k int) int {
	if !trusted {
		return k
	}
	if k = a.written.NextSet(k); k < 0 {
		return len(a.chunks)
	}
	return k
}

// SharesChunk reports whether v and o hold the chunk with bit (r, c) in
// the same memory, not merely equal ones: what a freeze that shared it
// with the previous view hands back. Test support.
func (v *MatrixView) SharesChunk(o *MatrixView, r, c int) bool {
	k := r/ChunkRows*((v.params.Cols+63)/64) + c/64
	return v.chunks[k] == o.chunks[k]
}

// Rows returns the matrix dimension.
func (v *MatrixView) Rows() int { return v.params.Rows }

// ColumnNORInto runs the in-memory priority decision over the frozen
// chunks: identical semantics and accounting to Array.ColumnNORInto,
// with the statistics landing in st, the caller's private accumulator.
//
//catcam:hotpath
func (v *MatrixView) ColumnNORInto(dst, active *bitvec.Vector, st *Stats) *bitvec.Vector {
	return columnNOR(v.params, v.chunks, dst, active, st)
}
