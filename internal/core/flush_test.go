package core

import (
	"math/rand"
	"reflect"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

// flushRef is the priority side of a subtable written the way §VIII-A
// describes an insert: each entry's comparator broadcast, row write and
// dual-voltage column write at once, through the plain array kernels.
type flushRef struct {
	prio             *sram.Array
	ranks            []Rank
	valid            *bitvec.Vector
	row, col, report *bitvec.Vector
}

func newFlushRef(n int) *flushRef {
	p := sram.PriorityMatrixParams()
	p.Rows, p.Cols = n, n
	return &flushRef{
		prio: sram.NewArray(p), ranks: make([]Rank, n), valid: bitvec.New(n),
		row: bitvec.New(n), col: bitvec.New(n), report: bitvec.New(n),
	}
}

func (r *flushRef) insert(slot int, k Rank) {
	r.row.Reset()
	r.col.Reset()
	for _, j := range r.valid.Indices() {
		if k.Beats(r.ranks[j]) {
			r.row.Set(j)
		} else {
			r.col.Set(j)
		}
	}
	r.prio.WriteRow(slot, r.row)
	r.prio.WriteColumn(slot, r.col)
	r.ranks[slot] = k
	r.valid.Set(slot)
}

func (r *flushRef) delete(slot int) {
	r.valid.Clear(slot)
	r.ranks[slot] = Rank{}
}

func (r *flushRef) max() int {
	if !r.valid.Any() {
		return -1
	}
	if rep := r.prio.ColumnNORInto(r.report, r.valid); rep.IsOneHot() {
		return rep.First()
	}
	return -2
}

// FuzzSubtablePriorityFlush holds a subtable's deferred priority-matrix
// writes to flushRef over random runs of inserts, deletes, max traces,
// sharing freezes, invariant checks and rolled-back runs, on 8-, 64-
// and 256-slot subtables. Ranks tie on priority at a fuzzed rate, runs
// of one rule's entries share priority and rule ID, and an insert
// often reuses the slot a delete just freed. After every read of the
// live matrix the two must hold the same bits in every chunk, the same
// written-chunk record and bit-identical statistics, report the same
// maximum, and a freeze must share and copy the same chunks.
func FuzzSubtablePriorityFlush(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(120), uint8(2))
	f.Add(int64(2), uint8(1), uint8(200), uint8(0))
	f.Add(int64(3), uint8(2), uint8(160), uint8(16))
	f.Add(int64(4), uint8(2), uint8(90), uint8(1))
	f.Add(int64(5), uint8(0), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, size, ops, ties uint8) {
		n := [...]int{8, 64, 256}[size%3]
		rng := rand.New(rand.NewSource(seed))
		st := testSubtable(n, 4)
		ref := newFlushRef(n)
		word := ternary.MustParse("10*1")
		prios := 1 << (ties % 17) // 1 to 65,536 distinct priorities
		nextID, nextSeq := 0, 0
		var lastFree = -1
		var prevView *subtableView
		var prevRef *sram.MatrixView

		// rank issues a fresh rank of rule id (a new rule when id < 0),
		// unique by its sequence number.
		rank := func(id, prio int) Rank {
			if id < 0 {
				id = nextID
				nextID++
			}
			nextSeq++
			return Rank{Priority: prio, RuleID: id, Seq: nextSeq}
		}
		freeSlot := func() int {
			if lastFree >= 0 && !st.match.IsValid(lastFree) && rng.Intn(2) == 0 {
				return lastFree
			}
			free := st.store.ValidRef().Copy()
			free.SetAll()
			free.AndNot(st.store.ValidRef())
			idx := free.Indices()
			if len(idx) == 0 {
				return -1
			}
			return idx[rng.Intn(len(idx))]
		}
		insert := func(slot int, r Rank) {
			st.Insert(slot, Entry{Word: word, Rank: r})
			ref.insert(slot, r)
		}
		del := func(slot int) {
			st.Delete(slot)
			ref.delete(slot)
			lastFree = slot
		}
		// run inserts m entries of one rule into free slots and returns
		// the slots, in insertion order.
		run := func(m int) []int {
			id, prio := -1, rng.Intn(prios)
			if nextID > 0 && rng.Intn(4) == 0 {
				id = rng.Intn(nextID) // a rule seen before: ties its priority and ID
				prio = 0
			}
			var slots []int
			for ; m > 0; m-- {
				slot := freeSlot()
				if slot < 0 {
					break
				}
				r := rank(id, prio)
				id = r.RuleID
				insert(slot, r)
				slots = append(slots, slot)
			}
			return slots
		}
		check := func(op int, what string) {
			if st.pending.Any() {
				t.Fatalf("op %d (%s): slots %v still pending after a read", op, what, st.pending)
			}
			if owed := st.prio.OwedCycles(); owed != 0 {
				t.Fatalf("op %d (%s): %d cycles of writes owed after a read", op, what, owed)
			}
			if got, want := st.prio.SnapshotView(), ref.prio.SnapshotView(); !reflect.DeepEqual(got, want) {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if st.prio.Bit(i, j) != ref.prio.Bit(i, j) {
							t.Fatalf("op %d (%s): P[%d][%d] = %v, written at once %v", op, what, i, j, st.prio.Bit(i, j), ref.prio.Bit(i, j))
						}
					}
				}
				t.Fatalf("op %d (%s): priority chunks differ outside the matrix", op, what)
			}
			if got, want := st.prio.Written(), ref.prio.Written(); !got.Equal(want) {
				t.Fatalf("op %d (%s): written chunks %s, written at once %s", op, what, got, want)
			}
			if _, got := st.Stats(); got != ref.prio.Stats() {
				t.Fatalf("op %d (%s): stats %+v, written at once %+v", op, what, got, ref.prio.Stats())
			}
		}

		for op := 0; op < int(ops); op++ {
			switch k := rng.Intn(16); {
			case k < 5:
				if slot := freeSlot(); slot >= 0 {
					insert(slot, rank(-1, rng.Intn(prios)))
				}
			case k < 7:
				run(1 + rng.Intn(min(n/2, 40)))
			case k < 9:
				if v := st.store.ValidRef().Indices(); len(v) > 0 {
					del(v[rng.Intn(len(v))])
					check(op, "delete")
				}
			case k == 9:
				// Delete and insert into the slot just freed.
				if v := st.store.ValidRef().Indices(); len(v) > 0 {
					slot := v[rng.Intn(len(v))]
					del(slot)
					check(op, "delete")
					insert(slot, rank(-1, rng.Intn(prios)))
				}
			case k == 10:
				// An insert stored part of a rule and is rolled back,
				// here newest entry first; deleteSeqs undoes an ErrFull
				// oldest first, and either order must flush alike.
				slots := run(1 + rng.Intn(min(n/2, 40)))
				for i := len(slots) - 1; i >= 0; i-- {
					del(slots[i])
					check(op, "rollback")
				}
			case k < 13:
				if got, want := st.RecomputeMax(), ref.max(); got != want {
					t.Fatalf("op %d: RecomputeMax = %d, written at once %d", op, got, want)
				}
				check(op, "max trace")
			case k < 15:
				view := st.snapshotView(prevView, 0)
				var refView *sram.MatrixView
				if prevView == nil {
					refView = ref.prio.SnapshotViewSharing(nil)
				} else {
					refView = ref.prio.SnapshotViewSharing(prevRef)
					if (view.prio == prevView.prio) != (refView == prevRef) {
						t.Fatalf("op %d: freeze returned the previous view %v, written at once %v", op, view.prio == prevView.prio, refView == prevRef)
					}
					for r := 0; r < n; r += sram.ChunkRows {
						for c := 0; c < n; c += 64 {
							if got, want := view.prio.SharesChunk(prevView.prio, r, c), refView.SharesChunk(prevRef, r, c); got != want {
								t.Fatalf("op %d: chunk at (%d, %d) shared %v, written at once %v", op, r, c, got, want)
							}
						}
					}
				}
				check(op, "snapshot")
				if rng.Intn(4) > 0 { // else the next freeze compares in full
					prevView, prevRef = view, refView
				}
			default:
				if err := st.CheckInvariant(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				check(op, "invariant")
			}
		}
		if err := st.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		check(int(ops), "end")
	})
}
