package sram

import (
	"fmt"
	"slices"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// This file holds the immutable read-side views of the two array
// flavours. A view is a frozen copy of exactly the state a search
// touches — bit-sliced match planes and the valid mask for the ternary
// array, the row bits for a priority matrix — built under the writer's
// lock by SnapshotView and then shared, unsynchronized, by any number
// of concurrent readers. Every slice is copied at construction: a view
// never aliases live array storage, so an in-place update to the array
// can never tear a reader traversing an already-published view.
//
// Views carry no Stats of their own (they are shared across
// goroutines); search and decision accounting accumulates into a
// caller-provided *Stats, which the read path keeps in per-goroutine
// scratch and flushes to device-level atomics per batch.

// TernaryView is an immutable snapshot of a TernaryArray's search
// state, compacted and ordered for the search kernel: order lists the
// positions at least one valid entry cares at, most-cared first, and
// counts how many valid entries care at each; lines holds, block by
// block (see blockRows), one line per listed position in that order;
// valid is the valid mask, padded to whole blocks. Positions no valid
// entry cares at match every entry and are dropped. filter is the
// bit-selection filter's bitmap (filter.go) for the positions sel
// names, held inline so freezing it allocates nothing. searchFJ is the
// energy one search of the view is charged. All fields are written only
// at construction.
//
//catcam:snapshot
type TernaryView struct {
	params     Params
	subarrays  int
	rowWords   int
	order      []uint16     //catcam:immutable
	counts     []uint16     //catcam:immutable
	lines      []uint64     //catcam:immutable
	valid      []uint64     //catcam:immutable
	filter     filterBitmap //catcam:immutable
	sel        *Selection   //catcam:immutable
	validCount int
	searchFJ   float64
}

// SnapshotView freezes the array's current search state into an
// immutable view. Every line is copied; the returned view stays valid
// (and constant) across later writes to the array. Not a modeled
// hardware access: no cycle or energy accounting.
func (t *TernaryArray) SnapshotView() *TernaryView {
	n := 0
	for _, c := range t.cares {
		if c > 0 {
			n++
		}
	}
	order, counts := make([]uint16, n), make([]uint16, n)
	t.careOrder(order)
	for i, pos := range order {
		counts[i] = uint16(t.cares[pos])
	}
	width := t.Width()
	blocks := len(t.planes) / (width * lineWords)
	lines := make([]uint64, blocks*n*lineWords)
	for b := 0; b < blocks; b++ {
		for i, pos := range order {
			from, to := (b*width+int(pos))*lineWords, (b*n+i)*lineWords
			copy(lines[to:to+lineWords], t.planes[from:from+lineWords])
		}
	}
	valid := make([]uint64, blocks*blockWords)
	copy(valid, t.valid.Words())
	return &TernaryView{
		params:     t.params,
		subarrays:  t.subarrays,
		rowWords:   len(t.valid.Words()),
		order:      order,
		counts:     counts,
		lines:      lines,
		valid:      valid,
		filter:     t.filterSet(),
		sel:        t.sel,
		validCount: t.validCount,
		searchFJ:   float64(t.subarrays) * t.params.ComputeEnergyFJ(t.validCount),
	}
}

// careOrder fills order, sized to the number of positions at least one
// valid entry cares at, with those positions by falling care count and,
// among equal counts, most significant first: a counting sort, since a
// count is at most Rows.
func (t *TernaryArray) careOrder(order []uint16) {
	var small [blockRows + 1]int32
	first := small[:]
	if t.params.Rows >= len(small) {
		first = make([]int32, t.params.Rows+1)
	}
	for _, c := range t.cares {
		first[c]++
	}
	// first[c] becomes the order index of the first position cared at
	// by exactly c entries.
	next := int32(0)
	for c := t.params.Rows; c > 0; c-- {
		first[c], next = next, next+first[c]
	}
	for pos := len(t.cares) - 1; pos >= 0; pos-- {
		if c := t.cares[pos]; c > 0 {
			order[first[c]] = uint16(pos)
			first[c]++
		}
	}
}

// Rows returns the entry capacity.
func (v *TernaryView) Rows() int { return v.params.Rows }

// RowWords returns the accumulator length SearchInto requires.
func (v *TernaryView) RowWords() int { return v.rowWords }

// ValidCount returns the number of valid entries at snapshot time.
func (v *TernaryView) ValidCount() int { return v.validCount }

// Width returns the ternary key width (positions) the view matches.
func (v *TernaryView) Width() int { return v.params.Cols * v.subarrays }

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
	for i, pos := range v.order {
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
// positions bring about soonest: on ClassBench ACL-5K a search visits
// about 17 of some 100 listed positions, where walking from the most
// significant position down took about 33.
//
//catcam:hotpath
func (v *TernaryView) SearchInto(dst *bitvec.Vector, acc []uint64, k ternary.Key, st *Stats) *bitvec.Vector {
	if k.Width() != v.Width() {
		panic(fmt.Sprintf("sram: key width %d != %d", k.Width(), v.Width()))
	}
	acc = acc[:v.rowWords]
	v.Charge(st)

	kw := k.Words()
	n := len(v.order)
	for b := 0; b*blockWords < len(v.valid); b++ {
		vw := (*[blockWords]uint64)(v.valid[b*blockWords:])
		a0, a1, a2, a3 := vw[0], vw[1], vw[2], vw[3]
		lines := v.lines[b*n*lineWords:]
		for i, pos := range v.order {
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

// MatrixView is an immutable snapshot of a square priority matrix: a
// copy of the array's flat row slab. All fields are written only at
// construction.
//
//catcam:snapshot
type MatrixView struct {
	params Params
	rows   []uint64 //catcam:immutable
}

// SnapshotView freezes the matrix's current contents into an immutable
// view with one copy of the row slab; later WriteRow/WriteColumn calls
// on the array cannot reach it. Not a modeled hardware access.
func (a *Array) SnapshotView() *MatrixView {
	return a.SnapshotViewSharing(nil)
}

// SnapshotViewSharing is SnapshotView that returns prev itself when prev
// (nil for none) already holds the array's current contents, so a
// publisher whose update left the matrix alone — a delete never writes
// it — shares the previous epoch's view instead of copying it. The
// decision is one compare of the row slab, so a shared view is
// byte-identical to a fresh freeze.
func (a *Array) SnapshotViewSharing(prev *MatrixView) *MatrixView {
	if a.params.Rows != a.params.Cols {
		panic("sram: MatrixView requires a square array")
	}
	if prev != nil && prev.params == a.params && slices.Equal(prev.rows, a.bits) {
		return prev
	}
	return &MatrixView{params: a.params, rows: append([]uint64(nil), a.bits...)}
}

// Rows returns the matrix dimension.
func (v *MatrixView) Rows() int { return v.params.Rows }

// ColumnNORInto runs the in-memory priority decision over the frozen
// rows: identical semantics and accounting to Array.ColumnNORInto,
// with the statistics landing in st, the caller's private accumulator.
//
//catcam:hotpath
func (v *MatrixView) ColumnNORInto(dst, active *bitvec.Vector, st *Stats) *bitvec.Vector {
	return columnNOR(v.params, v.rows, dst, active, st)
}
