package core

import (
	"fmt"
	"math/bits"
	"slices"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

// Entry is what a CATCAM slot stores: a ternary word plus the metadata
// the scheduler and reporter need.
type Entry struct {
	Word   ternary.Word
	Rank   Rank
	Action int
}

// Subtable is one CATCAM subtable: a match matrix, a priority matrix and
// a priority store sharing slot numbering (§VI). Rule priorities are
// fully decoupled from slot addresses; the priority matrix alone decides
// the winner among matched slots.
type Subtable struct {
	id    int
	match *sram.TernaryArray
	prio  *sram.Array
	store *PriorityStore
	// actions is reporter metadata (what the switch does on a match).
	actions []int
	// metaWritten has bit c set when Insert or Delete has written slot
	// metadata chunk c (slots c*metaChunk on) since the last freeze that
	// shared with a previous view, and lastMeta is the chunk table that
	// freeze returned (snapshotMeta).
	metaWritten *bitvec.Vector
	lastMeta    []*slotMeta
	// pending has bit s set when Insert stored slot s's entry and charged
	// its priority-matrix row and column writes, which flush has not yet
	// performed. flush runs before anything reads the live matrix.
	pending *bitvec.Vector
	// scratch is flush's working storage, shared by every subtable of a
	// device (updates serialize on its lock); a subtable built on its own
	// makes its own at its first flush.
	scratch *flushScratch
	// report is the reusable output buffer of RecomputeMax's priority
	// decision, so it does not allocate at steady state.
	report *bitvec.Vector
	// aud, when attached by the device, switches a broken one-hot
	// guarantee in RecomputeMax from fail-stop (panic) to fail-report
	// with a metadata-derived fallback answer. Lookups decide over the
	// published view (subtableView.decide), never over the live arrays.
	aud *flightrec.Auditor
}

// NewSubtable builds a subtable with the given slot capacity and key
// width. matchParams/prioParams supply the physical array models;
// prioParams must be square with Rows == capacity.
func NewSubtable(id, capacity, width int, matchParams, prioParams sram.Params) *Subtable {
	if prioParams.Rows != capacity || prioParams.Cols != capacity {
		panic(fmt.Sprintf("core: priority matrix %dx%d does not match capacity %d",
			prioParams.Rows, prioParams.Cols, capacity))
	}
	if matchParams.Rows != capacity {
		panic(fmt.Sprintf("core: match matrix rows %d != capacity %d", matchParams.Rows, capacity))
	}
	return &Subtable{
		id:          id,
		match:       sram.NewTernaryArray(matchParams, width),
		prio:        sram.NewArray(prioParams),
		store:       NewPriorityStore(capacity),
		actions:     make([]int, capacity),
		metaWritten: bitvec.New((capacity + metaChunk - 1) / metaChunk),
		pending:     bitvec.New(capacity),
		report:      bitvec.New(capacity),
	}
}

// flushScratch is what one flush works in, sized for a capacity once:
// the pending slots with their ranks, in rank order, with room for
// CompareAll's padding; each row's class, which also covers the rows
// that pad the priority matrix to whole chunks; the classes
// bit-sliced; the class masks; the running OR of the class buckets;
// and the row being written.
type flushScratch struct {
	pend   []pendingSlot
	class  []uint16
	planes []uint64
	masks  []uint64
	below  []uint64
	row    []uint64
}

type pendingSlot struct {
	rank Rank
	slot int
}

func newFlushScratch(capacity int) *flushScratch {
	w := (capacity + 63) / 64
	return &flushScratch{
		pend:   make([]pendingSlot, 0, 1<<bits.Len(uint(capacity))),
		class:  make([]uint16, (capacity+sram.ChunkRows-1)/sram.ChunkRows*sram.ChunkRows),
		planes: make([]uint64, bits.Len(uint(capacity))*w),
		masks:  make([]uint64, (capacity+1)*w),
		below:  make([]uint64, w),
		row:    make([]uint64, w),
	}
}

// ID returns the subtable's index.
func (st *Subtable) ID() int { return st.id }

// Capacity returns the slot count.
func (st *Subtable) Capacity() int { return st.match.Rows() }

// Count returns the number of stored rules.
func (st *Subtable) Count() int { return st.match.ValidCount() }

// Full reports whether no free slot remains.
func (st *Subtable) Full() bool { return st.Count() == st.Capacity() }

// Empty reports whether the subtable stores nothing.
func (st *Subtable) Empty() bool { return st.Count() == 0 }

// FreeSlot returns the lowest free slot, or -1.
func (st *Subtable) FreeSlot() int { return st.match.FirstFree() }

// Insert writes e into the given free slot: the match matrix row
// (1 cycle) in parallel with the priority matrix row + column write
// (1 + 2 cycles), per §VIII-A a 3-cycle operation. All three are
// charged here, in that order, but the priority row and column are
// only marked pending: flush writes them, with those of every other
// entry inserted since the last read of the matrix, from one
// comparator broadcast (CompareAll). The matrix a reader sees, and
// every statistic, is what writing each entry at once would give.
func (st *Subtable) Insert(slot int, e Entry) {
	if st.match.IsValid(slot) {
		panic(fmt.Sprintf("core: subtable %d slot %d occupied", st.id, slot))
	}
	st.match.WriteEntry(slot, e.Word)
	st.prio.ChargeEntryWrite()
	st.store.Set(slot, e.Rank)
	st.actions[slot] = e.Action
	st.pending.Set(slot)
	st.metaWritten.Set(slot / metaChunk)
}

// Delete invalidates a slot (1 cycle). Stale priority-matrix bits are
// harmless: an invalid slot never matches, so its word-line never
// activates, and its row/column are rewritten on the next insert into
// the slot. Pending writes are flushed first, while the slot is still
// valid, so the stale bits are those writing each entry at once leaves.
func (st *Subtable) Delete(slot int) {
	if !st.match.IsValid(slot) {
		panic(fmt.Sprintf("core: subtable %d slot %d already free", st.id, slot))
	}
	st.flush()
	st.match.Invalidate(slot)
	st.store.Clear(slot)
	st.metaWritten.Set(slot / metaChunk)
}

// flush performs the pending priority-matrix writes in one pass: for k
// pending entries, one comparator broadcast of (capacity + k) ·
// bits.Len(k) compares and O(capacity + k · bits.Len(k)) word work,
// instead of k broadcasts and k column writes. Between two flushes
// only inserts run (Delete flushes first), so writing each entry at
// once would leave P[i][s] = slot i valid and beating slot s, for every
// row i and pending slot s, and the same in every column of a pending
// row. flush sorts the pending ranks and broadcasts them (CompareAll),
// which gives each row its class, the number of pending ranks it
// beats, also bit-sliced. Pending entry t's row is then the other
// valid slots of classes 0 to t, a running OR of the class buckets,
// and the t lowest pending slots. The pending columns of all rows are
// written with one masked store per row and word, the class picking
// the row's mask: the class lowest pending slots. flush runs before
// every read of the live matrix: RecomputeMax, Delete, snapshotView
// and CheckInvariant. Insert charged the cycles.
func (st *Subtable) flush() {
	if !st.pending.Any() {
		return
	}
	fs := st.scratch
	if fs == nil {
		fs = newFlushScratch(st.Capacity())
		st.scratch = fs
	}
	pend := fs.pend[:0]
	for wi, w := range st.pending.Words() {
		for ; w != 0; w &= w - 1 {
			slot := wi*64 + bits.TrailingZeros64(w)
			pend = append(pend, pendingSlot{rank: st.store.ranks[slot], slot: slot})
		}
	}
	slices.SortFunc(pend, byRank)
	w, classes := len(fs.row), len(pend)+1
	st.store.CompareAll(pend, st.pending.Words(), fs.class, fs.planes)

	// masks[wi*classes+c] is word wi of the c lowest pending slots.
	masks := fs.masks[:w*classes]
	for wi := 0; wi < w; wi++ {
		masks[wi*classes] = 0
	}
	for t, p := range pend {
		for wi := 0; wi < w; wi++ {
			masks[wi*classes+t+1] = masks[wi*classes+t]
		}
		masks[p.slot/64*classes+t+1] |= 1 << (p.slot % 64)
	}

	// Bucket t, the valid slots not pending of class t, is where the
	// planes spell t; below gathers the buckets up to t.
	L, valid, pending := bits.Len(uint(len(pend))), st.store.valid.Words(), st.pending.Words()
	below, row := fs.below, fs.row
	clear(below)
	for t, p := range pend {
		for wi := range row {
			bucket := valid[wi] &^ pending[wi]
			for b, pl := range fs.planes[wi*L : (wi+1)*L] {
				bucket &= pl ^ (uint64(t>>b&1) - 1)
			}
			below[wi] |= bucket
			row[wi] = below[wi] | masks[wi*classes+t]
		}
		st.prio.WriteOwedRow(p.slot, row)
	}
	st.prio.WriteOwedColumns(st.pending.Words(), fs.class, masks)
	st.pending.Reset()
}

// byRank orders pending slots by increasing rank.
func byRank(a, b pendingSlot) int {
	switch {
	case a.rank.Less(b.rank):
		return -1
	case a.rank == b.rank:
		return 0
	}
	return 1
}

// ReadEntry reads a stored entry back out (1 cycle in the match matrix,
// rank and action from metadata) — the extra cycle a reallocation pays.
func (st *Subtable) ReadEntry(slot int) Entry {
	w, ok := st.match.ReadEntry(slot)
	if !ok {
		panic(fmt.Sprintf("core: subtable %d slot %d empty on read", st.id, slot))
	}
	r, _ := st.store.Rank(slot)
	return Entry{Word: w, Rank: r, Action: st.actions[slot]}
}

// Rank returns the rank at slot.
func (st *Subtable) Rank(slot int) (Rank, bool) { return st.store.Rank(slot) }

// Action returns the action at slot.
func (st *Subtable) Action(slot int) int { return st.actions[slot] }

// RecomputeMax performs the paper's §IV-C trick: a priority decision
// with the match vector forced to "all valid entries" yields the slot
// holding the subtable's maximum priority in one cycle, with no sorted
// structure. Returns -1 when empty.
func (st *Subtable) RecomputeMax() int {
	st.flush()
	valid := st.store.ValidRef()
	if !valid.Any() {
		return -1
	}
	report := st.prio.ColumnNORInto(st.report, valid)
	if report.IsOneHot() {
		return report.First()
	}
	if st.aud == nil {
		panic(fmt.Sprintf("core: subtable %d max-trace report not one-hot: %s", st.id, report))
	}
	st.aud.Fail(flightrec.Violation{
		Invariant: flightrec.InvReportOneHot, Table: -1, Subtable: st.id, RuleID: -1,
		Detail: fmt.Sprintf("max-trace report %s has %d bits set", report, report.Count()),
	})
	return st.store.MaxSlot()
}

// Stats returns the combined array statistics (match + priority).
func (st *Subtable) Stats() (match, prio sram.Stats) {
	return st.match.Stats(), st.prio.Stats()
}

// ResetStats zeroes the array statistics.
func (st *Subtable) ResetStats() {
	st.match.ResetStats()
	st.prio.ResetStats()
}

// CheckInvariant verifies the priority matrix agrees with the store:
// for every pair of valid slots, P[i][j] == rank_i beats rank_j, and
// no charged write is left unperformed once pending writes are flushed.
// Test support, not a hardware operation.
func (st *Subtable) CheckInvariant() error {
	st.flush()
	if n := st.prio.OwedCycles(); n != 0 {
		return fmt.Errorf("core: subtable %d owes %d cycles of priority-matrix writes after a flush", st.id, n)
	}
	valid := st.store.Valid()
	idx := valid.Indices()
	for _, i := range idx {
		ri, _ := st.store.Rank(i)
		for _, j := range idx {
			rj, _ := st.store.Rank(j)
			want := ri.Beats(rj)
			if got := st.prio.Bit(i, j); got != want {
				return fmt.Errorf("core: subtable %d P[%d][%d]=%v, ranks %v vs %v",
					st.id, i, j, got, ri, rj)
			}
		}
		if !st.match.IsValid(i) {
			return fmt.Errorf("core: subtable %d slot %d valid in store but not match matrix", st.id, i)
		}
	}
	if st.match.ValidCount() != st.store.Count() {
		return fmt.Errorf("core: subtable %d match/store count mismatch", st.id)
	}
	return nil
}
