package core

import (
	"fmt"

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
	// report is the reusable output buffer of RecomputeMax's priority
	// decision, and row/col those of Insert's comparator broadcast, so
	// neither allocates at steady state.
	report, row, col *bitvec.Vector
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
		report:      bitvec.New(capacity),
		row:         bitvec.New(capacity),
		col:         bitvec.New(capacity),
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
// (1 + 2 cycles), per §VIII-A a 3-cycle operation. The priority vectors
// come from the store's comparators.
func (st *Subtable) Insert(slot int, e Entry) {
	if st.match.IsValid(slot) {
		panic(fmt.Sprintf("core: subtable %d slot %d occupied", st.id, slot))
	}
	st.store.CompareAll(e.Rank, st.row, st.col)
	st.match.WriteEntry(slot, e.Word)
	st.prio.WriteRow(slot, st.row)
	st.prio.WriteColumn(slot, st.col)
	st.store.Set(slot, e.Rank)
	st.actions[slot] = e.Action
	st.metaWritten.Set(slot / metaChunk)
}

// Delete invalidates a slot (1 cycle). Stale priority-matrix bits are
// harmless: an invalid slot never matches, so its word-line never
// activates, and its row/column are rewritten on the next insert into
// the slot.
func (st *Subtable) Delete(slot int) {
	if !st.match.IsValid(slot) {
		panic(fmt.Sprintf("core: subtable %d slot %d already free", st.id, slot))
	}
	st.match.Invalidate(slot)
	st.store.Clear(slot)
	st.metaWritten.Set(slot / metaChunk)
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
// for every pair of valid slots, P[i][j] == rank_i beats rank_j. Test
// support, not a hardware operation.
func (st *Subtable) CheckInvariant() error {
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
