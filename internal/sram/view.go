package sram

import (
	"fmt"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// This file holds the immutable read-side views of the two array
// flavours. A view is a frozen copy of exactly the state a search
// touches — bit-sliced match planes and the valid mask for the ternary
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
// are the array's entry count and key width; walk holds the
// positions the kernel visits and their lines (careLines), held inline
// so a search reaches them without another load; counts holds how many
// valid entries care at each listed position; valid is the valid mask,
// padded to whole blocks. filter is the bit-selection filter's bitmap
// (filter.go) for the positions sel names, held inline so freezing it
// allocates nothing. searchFJ is the energy one search of the view is
// charged. All fields are written only at construction; walk's slices
// may be shared with other views of the same array.
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

// careLines is what a search walks: order lists the positions at least
// one stored row cares at (a valid entry, or an invalidated one whose
// planes no write has replaced yet), by falling count of those rows;
// lines holds, block by block (see blockRows), one line per listed
// position in that order. Positions no stored row cares at match every
// entry and are dropped. A search starts from the valid mask, so the
// lines of invalidated rows never surface, and ordering by stored rows
// rather than valid ones lets a delete leave order and lines as they
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

// SnapshotViewSharing is SnapshotView that takes the position order and
// the line slab from prev (the previous view of this array, or nil)
// when they are still the array's: when prev lists the order the
// stored-care counts give now and every line it holds equals the live
// one. A delete changes neither, so its view copies only the valid
// mask, the counts and the filter bitmap. Contents decide: a shared
// view is byte-identical to a fresh freeze. The written-part record
// names the candidates: when prev is the view the last such freeze
// returned and no write has reached the planes since, prev's order and
// lines are the array's without a compare. Any other prev is compared
// in full. A non-nil prev makes the returned view the record's.
func (t *TernaryArray) SnapshotViewSharing(prev *TernaryView) *TernaryView {
	var walk careLines
	switch {
	case prev == nil || prev.rows != t.params.Rows || prev.width != t.Width():
		walk = t.freezeLines()
	case prev == t.last && !t.planesWritten,
		t.isCareOrder(prev.walk.order) && t.linesEqual(prev.walk):
		walk = prev.walk
	default:
		walk = t.freezeLines()
	}
	counts := make([]uint16, len(walk.order))
	for i, pos := range walk.order {
		counts[i] = uint16(t.cares[pos])
	}
	valid := make([]uint64, len(t.planes)/(t.Width()*lineWords)*blockWords)
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

// freezeLines copies the positions stored rows care at, in careOrder,
// and their lines out of the planes.
func (t *TernaryArray) freezeLines() careLines {
	n := t.caredPositions()
	order := make([]uint16, n)
	t.careOrder(order)
	width := t.Width()
	lines := make([]uint64, len(t.planes)/width*n)
	for b := 0; b*width*lineWords < len(t.planes); b++ {
		for i, pos := range order {
			from, to := (b*width+int(pos))*lineWords, (b*n+i)*lineWords
			copy(lines[to:to+lineWords], t.planes[from:from+lineWords])
		}
	}
	return careLines{order: order, lines: lines}
}

// caredPositions returns the number of positions at least one stored
// row cares at.
func (t *TernaryArray) caredPositions() int {
	n := 0
	for _, c := range t.stored {
		if c > 0 {
			n++
		}
	}
	return n
}

// careOrder fills order, sized to the number of positions at least one
// stored row cares at, with those positions by falling stored-care
// count and, among equal counts, most significant first: a counting
// sort, since a count is at most Rows.
func (t *TernaryArray) careOrder(order []uint16) {
	var small [blockRows + 1]int32
	first := small[:]
	if t.params.Rows >= len(small) {
		first = make([]int32, t.params.Rows+1)
	}
	for _, c := range t.stored {
		first[c]++
	}
	// first[c] becomes the order index of the first position cared at
	// by exactly c stored rows.
	next := int32(0)
	for c := t.params.Rows; c > 0; c-- {
		first[c], next = next, next+first[c]
	}
	for pos := len(t.stored) - 1; pos >= 0; pos-- {
		if c := t.stored[pos]; c > 0 {
			order[first[c]] = uint16(pos)
			first[c]++
		}
	}
}

// isCareOrder reports whether order is what careOrder would produce
// now, without building it: order must list as many positions as
// stored rows care at, each cared at, by strictly falling (count,
// position). Strictness makes the listed positions distinct, so they
// are exactly the cared-at ones, in the one order careOrder gives.
func (t *TernaryArray) isCareOrder(order []uint16) bool {
	if t.caredPositions() != len(order) {
		return false
	}
	for i, pos := range order {
		c := t.stored[pos]
		if c == 0 {
			return false
		}
		if i > 0 {
			if p := order[i-1]; t.stored[p] < c || t.stored[p] == c && p < pos {
				return false
			}
		}
	}
	return true
}

// linesEqual reports whether every line of w equals the live planes at
// the position it is listed for.
func (t *TernaryArray) linesEqual(w careLines) bool {
	width, n := t.Width(), len(w.order)
	for b := 0; b*width*lineWords < len(t.planes); b++ {
		for i, pos := range w.order {
			from, at := (b*width+int(pos))*lineWords, (b*n+i)*lineWords
			if *(*[lineWords]uint64)(t.planes[from:]) != *(*[lineWords]uint64)(w.lines[at:]) {
				return false
			}
		}
	}
	return true
}

// SharesSearchState reports whether v and o hold the same position
// order and line slab in memory, not merely equal ones: what a freeze
// that took both from the previous view hands back. Test support.
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
	for i, pos := range v.walk.order {
		dst[base+int(pos)] = uint64(v.counts[i])
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
// registers. Visiting a listed position broadcasts the key bit there to
// all 64 lanes of a word without a branch and knocks out the entries
// whose stored value disagrees at a position they care about. The walk
// leaves a block when its accumulator empties, which the most-cared
// positions bring about soonest. On ClassBench ACL-5K probed with one
// 4,096-header PacketTrace batch at locality 0.8, a search visited 16.6
// of 103 listed positions when this order came in, where walking from
// the most significant position down took 33.1; benchmark traffic
// (ACL-5K seed 1, 64-header batches from a 1 Mi-flow trace) visits
// about 40 of 106 (DESIGN.md §8).
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
		lines := v.walk.lines[b*n*lineWords:]
		for i, pos := range order {
			if a0|a1|a2|a3 == 0 {
				break
			}
			bcast := -(kw[pos>>6] >> (pos & 63) & 1)
			l := (*[lineWords]uint64)(lines[i*lineWords:])
			a0 &^= (l[0] ^ bcast) & l[4]
			a1 &^= (l[1] ^ bcast) & l[5]
			a2 &^= (l[2] ^ bcast) & l[6]
			a3 &^= (l[3] ^ bcast) & l[7]
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
