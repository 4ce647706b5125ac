package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

func testSubtable(cap, width int) *Subtable {
	mp := sram.MatchMatrixParams()
	mp.Rows, mp.Cols = cap, width
	pp := sram.PriorityMatrixParams()
	pp.Rows, pp.Cols = cap, cap
	return NewSubtable(0, cap, width, mp, pp)
}

// viewSearch and viewDecide are what a lookup does inside one subtable:
// the key is searched in the published view's match planes and the
// priority decision runs over its frozen matrix. A subtable decides
// nowhere else, so this is the path the tests below must exercise.
func viewSearch(sv *subtableView, k ternary.Key, st *sram.Stats) *bitvec.Vector {
	n := sv.match.Rows()
	return sv.match.SearchInto(bitvec.New(n), make([]uint64, (n+63)/64), k, st)
}

func viewDecide(sv *subtableView, mv *bitvec.Vector, aud *flightrec.Auditor) int {
	return sv.decide(bitvec.New(sv.match.Rows()), mv, &sram.Stats{}, aud)
}

func TestRankOrder(t *testing.T) {
	a := Rank{Priority: 1, RuleID: 1, Seq: 1}
	b := Rank{Priority: 2, RuleID: 0, Seq: 0}
	c := Rank{Priority: 1, RuleID: 2, Seq: 0}
	d := Rank{Priority: 1, RuleID: 1, Seq: 2}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("priority ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("rule-ID tie-break broken")
	}
	if !a.Less(d) || d.Less(a) {
		t.Fatal("seq tie-break broken")
	}
	if a.Less(a) || !a.Beats(Rank{}) == a.Less(Rank{}) && a.Beats(a) {
		t.Fatal("order not strict")
	}
	if a.String() == "" {
		t.Fatal("empty string form")
	}
}

// broadcast stores pend's ranks in their slots, as Insert does, sorts
// pend and runs CompareAll over it into scratch filled with ones, so
// that what it does not overwrite shows. It returns the pending mask,
// the classes and the class planes.
func broadcast(s *PriorityStore, pend []pendingSlot) (*bitvec.Vector, []uint16, []uint64) {
	pending := bitvec.New(s.Capacity())
	for _, p := range pend {
		s.Set(p.slot, p.rank)
		pending.Set(p.slot)
	}
	slices.SortFunc(pend, byRank)
	fs := newFlushScratch(s.Capacity())
	for i := range fs.class {
		fs.class[i] = ^uint16(0)
	}
	for i := range fs.planes {
		fs.planes[i] = ^uint64(0)
	}
	s.CompareAll(append(fs.pend, pend...), pending.Words(), fs.class, fs.planes)
	return pending, fs.class, fs.planes
}

// checkBroadcast holds CompareAll's output to Beats, row by row: a
// valid slot not pending is in the class of the pending ranks it
// beats, in class and in planes, pend[t] in class t, and any other row
// in class 0.
func checkBroadcast(t *testing.T, s *PriorityStore, pend []pendingSlot, pending *bitvec.Vector, class []uint16, planes []uint64) {
	t.Helper()
	L := bits.Len(uint(len(pend)))
	for i := range class {
		want, listed := 0, false
		if i < s.Capacity() && pending.Get(i) {
			for want < len(pend) && pend[want].slot != i {
				want++
			}
		} else if i < s.Capacity() {
			r, valid := s.Rank(i)
			for _, p := range pend {
				if valid && r.Beats(p.rank) {
					want++
				}
			}
			listed = valid
		}
		if int(class[i]) != want {
			t.Fatalf("row %d: class %d, want %d", i, class[i], want)
		}
		if !listed {
			continue
		}
		got := 0
		for b, pl := range planes[i/64*L : (i/64+1)*L] {
			got |= int(pl>>(i%64)&1) << b
		}
		if got != want {
			t.Fatalf("row %d: planes spell class %d, want %d", i, got, want)
		}
	}
}

// TestPriorityStoreBroadcast: CompareAll gives every row the number of
// pending ranks it beats, and buckets the valid slots not pending by it.
func TestPriorityStoreBroadcast(t *testing.T) {
	s := NewPriorityStore(8)
	s.Set(1, Rank{Priority: 10})
	s.Set(3, Rank{Priority: 30})
	s.Set(5, Rank{Priority: 50})
	pend := []pendingSlot{{rank: Rank{Priority: 40}, slot: 7}, {rank: Rank{Priority: 5}, slot: 0}}
	pending, class, planes := broadcast(s, pend)
	// Priority 5 beats no slot; 40 beats slots 1 and 3 (its row) and
	// loses to slot 5 (its column).
	if want := []uint16{0, 1, 0, 1, 0, 2, 0, 1}; !slices.Equal(class[:8], want) {
		t.Fatalf("class = %v, want %v", class[:8], want)
	}
	if planes[0]&(1<<1|1<<3|1<<5) != 1<<1|1<<3 || planes[1]&(1<<1|1<<3|1<<5) != 1<<5 {
		t.Fatalf("planes = %b, want classes 1, 1 and 2 at slots 1, 3 and 5", planes[:2])
	}
	checkBroadcast(t, s, pend, pending, class, planes)
	if s.MaxSlot() != 5 {
		t.Fatalf("MaxSlot = %d", s.MaxSlot())
	}
	s.Clear(5)
	if s.MaxSlot() != 7 {
		t.Fatalf("MaxSlot after clear = %d", s.MaxSlot())
	}
	if _, ok := s.Rank(5); ok {
		t.Fatal("cleared slot still has rank")
	}
	if s.Count() != 4 || s.Capacity() != 8 {
		t.Fatal("counts wrong")
	}
	if raceEnabled {
		return // race instrumentation perturbs allocation counts
	}
	fs := newFlushScratch(s.Capacity())
	pend = append(fs.pend, pend...)
	if n := testing.AllocsPerRun(10, func() { s.CompareAll(pend, pending.Words(), class, planes) }); n != 0 {
		t.Errorf("CompareAll allocates %.1f/op", n)
	}

	// Ties: 200 slots (three full words and an 8-slot tail) whose ranks
	// share priorities, and within a priority rule IDs, so the rule ID
	// and then the sequence decide; every fifth slot vacant, and the
	// slots of one word all valid. Pending ranks go into vacant slots:
	// some tie stored ones' priority and rule ID, one beats none, one
	// beats all, and one pending alone is the single insert's broadcast.
	s = NewPriorityStore(200)
	for i := 0; i < s.Capacity(); i++ {
		if i%5 == 4 && i/64 != 1 {
			continue
		}
		s.Set(i, Rank{Priority: i % 3, RuleID: i / 7 % 2, Seq: i})
	}
	pend = []pendingSlot{
		{rank: Rank{Priority: 1, RuleID: 1, Seq: 100}, slot: 4}, // ties priority and rule ID with stored ranks
		{rank: Rank{Priority: 1, RuleID: 0, Seq: 1000}, slot: 9},
		{rank: Rank{Priority: 1, RuleID: 0, Seq: 50}, slot: 14},
		{rank: Rank{Priority: 2, RuleID: 1, Seq: -1}, slot: 19},
		{rank: Rank{Priority: -1}, slot: 24}, {rank: Rank{Priority: 3}, slot: 199}, // beats none, beats all
	}
	pending, class, planes = broadcast(s, pend)
	checkBroadcast(t, s, pend, pending, class, planes)
	s.Clear(4)
	pend = []pendingSlot{{rank: Rank{Priority: 1, RuleID: 1, Seq: 8}, slot: 4}}
	for _, p := range []int{9, 14, 19, 24, 199} {
		s.Clear(p)
	}
	pending, class, planes = broadcast(s, pend)
	checkBroadcast(t, s, pend, pending, class, planes)

	// Every count of pending ranks up to 70 (one to seven search steps,
	// with and without padding) over 130 slots whose priorities mostly
	// tie, some at math.MaxInt, the padding's priority.
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 70; k++ {
		s = NewPriorityStore(130)
		prio := func() int {
			if rng.Intn(8) == 0 {
				return math.MaxInt
			}
			return rng.Intn(6) - 2
		}
		slots := rng.Perm(s.Capacity())
		for _, i := range slots[k:] {
			if rng.Intn(6) > 0 {
				s.Set(i, Rank{Priority: prio(), RuleID: rng.Intn(3), Seq: i})
			}
		}
		pend = pend[:0]
		for _, i := range slots[:k] {
			pend = append(pend, pendingSlot{rank: Rank{Priority: prio(), RuleID: rng.Intn(3), Seq: i}, slot: i})
		}
		pending, class, planes = broadcast(s, pend)
		checkBroadcast(t, s, pend, pending, class, planes)
	}
}

func TestPriorityStoreEmptyMax(t *testing.T) {
	if NewPriorityStore(4).MaxSlot() != -1 {
		t.Fatal("empty store MaxSlot != -1")
	}
}

// Reproduce the paper's Fig 5 end to end in one subtable: rules R0..R3
// at slots 1,3,4,2 (scattered — addresses don't encode priority), input
// 1010 must report R2.
func TestSubtableFig5(t *testing.T) {
	st := testSubtable(8, 4)
	put := func(slot int, word string, prio, id int) {
		st.Insert(slot, Entry{Word: ternary.MustParse(word), Rank: Rank{Priority: prio, RuleID: id}, Action: id})
	}
	put(1, "10**", 1, 0) // R0
	put(3, "0110", 2, 1) // R1
	put(4, "1010", 4, 2) // R2
	put(2, "101*", 3, 3) // R3

	sv := st.snapshotView(nil, 0)
	mv := viewSearch(sv, ternary.MustParseKey("1010"), &sram.Stats{})
	if got := mv.Indices(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("match vector = %v, want [1 2 4]", got)
	}
	slot := viewDecide(sv, mv, nil)
	if slot != 4 {
		t.Fatalf("decide = slot %d, want 4 (R2)", slot)
	}
	if st.Action(slot) != 2 {
		t.Fatalf("action = %d", st.Action(slot))
	}
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Fig 6: R4 (priority between R3 and R0... actually priority 0 lowest in
// Fig 2's table is R4 prio 0? The paper's R4=1*** has priority 0 —
// lowest). Insert into any empty slot; lookups still correct.
func TestSubtableInsertAnySlotFig6(t *testing.T) {
	st := testSubtable(8, 4)
	st.Insert(1, Entry{Word: ternary.MustParse("10**"), Rank: Rank{Priority: 1, RuleID: 0}, Action: 0})
	st.Insert(3, Entry{Word: ternary.MustParse("0110"), Rank: Rank{Priority: 2, RuleID: 1}, Action: 1})
	st.Insert(4, Entry{Word: ternary.MustParse("1010"), Rank: Rank{Priority: 4, RuleID: 2}, Action: 2})
	st.Insert(2, Entry{Word: ternary.MustParse("101*"), Rank: Rank{Priority: 3, RuleID: 3}, Action: 3})
	// R4 into empty slot 0 — no other entry touched.
	st.Insert(0, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 0, RuleID: 4}, Action: 4})

	cases := []struct {
		key  string
		want int // action
	}{
		{"1010", 2}, // R2 wins
		{"1011", 3}, // R3
		{"1000", 0}, // R0
		{"1100", 4}, // only R4
		{"0110", 1}, // R1
	}
	sv := st.snapshotView(nil, 0)
	for _, c := range cases {
		slot := viewDecide(sv, viewSearch(sv, ternary.MustParseKey(c.key), &sram.Stats{}), nil)
		if slot < 0 || st.Action(slot) != c.want {
			t.Fatalf("key %s: got slot %d action %d, want action %d",
				c.key, slot, st.Action(slot), c.want)
		}
	}
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSubtableDecideEmpty(t *testing.T) {
	sv := testSubtable(4, 4).snapshotView(nil, 0)
	if viewDecide(sv, bitvec.New(4), nil) != -1 {
		t.Fatal("empty match vector should yield -1")
	}
}

func TestSubtableRecomputeMax(t *testing.T) {
	st := testSubtable(8, 4)
	if st.RecomputeMax() != -1 {
		t.Fatal("empty subtable max != -1")
	}
	st.Insert(6, Entry{Word: ternary.MustParse("0000"), Rank: Rank{Priority: 5, RuleID: 0}})
	st.Insert(2, Entry{Word: ternary.MustParse("0001"), Rank: Rank{Priority: 9, RuleID: 1}})
	st.Insert(4, Entry{Word: ternary.MustParse("0010"), Rank: Rank{Priority: 7, RuleID: 2}})
	if got := st.RecomputeMax(); got != 2 {
		t.Fatalf("RecomputeMax = %d, want 2", got)
	}
	st.Delete(2)
	if got := st.RecomputeMax(); got != 4 {
		t.Fatalf("RecomputeMax after delete = %d, want 4", got)
	}
}

func TestSubtableDeleteReinsert(t *testing.T) {
	st := testSubtable(4, 4)
	st.Insert(0, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 1, RuleID: 0}})
	st.Insert(1, Entry{Word: ternary.MustParse("11**"), Rank: Rank{Priority: 2, RuleID: 1}})
	st.Delete(0)
	if st.Count() != 1 || st.Full() || st.Empty() {
		t.Fatal("counts wrong after delete")
	}
	// Reinsert into the same slot with a different rank: stale priority
	// bits must be fully overwritten.
	st.Insert(0, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 9, RuleID: 2}})
	sv := st.snapshotView(nil, 0)
	if slot := viewDecide(sv, viewSearch(sv, ternary.MustParseKey("1100"), &sram.Stats{}), nil); slot != 0 {
		t.Fatalf("reinserted high-priority rule should win, got slot %d", slot)
	}
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSubtablePanics(t *testing.T) {
	st := testSubtable(4, 4)
	st.Insert(1, Entry{Word: ternary.MustParse("0000"), Rank: Rank{Priority: 1}})
	for i, f := range []func(){
		func() { st.Insert(1, Entry{Word: ternary.MustParse("1111"), Rank: Rank{Priority: 2}}) },
		func() { st.Delete(0) },
		func() { st.ReadEntry(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSubtableReadEntry(t *testing.T) {
	st := testSubtable(4, 4)
	e := Entry{Word: ternary.MustParse("10*1"), Rank: Rank{Priority: 3, RuleID: 7}, Action: 70}
	st.Insert(2, e)
	got := st.ReadEntry(2)
	if !got.Word.Equal(e.Word) || got.Rank != e.Rank || got.Action != 70 {
		t.Fatalf("ReadEntry = %+v", got)
	}
}

func TestSubtableCycleCosts(t *testing.T) {
	st := testSubtable(4, 4)
	st.Insert(0, Entry{Word: ternary.MustParse("0000"), Rank: Rank{Priority: 1}})
	m, p := st.Stats()
	// insert: 1 match write; priority: 1 row write (1cy) + 1 column write (2cy)
	if m.Cycles != 1 {
		t.Fatalf("match cycles = %d, want 1", m.Cycles)
	}
	if p.Cycles != 3 {
		t.Fatalf("priority cycles = %d, want 3", p.Cycles)
	}
	// A search is charged to the reader's statistics, not the arrays'.
	st.ResetStats()
	var search sram.Stats
	viewSearch(st.snapshotView(nil, 0), ternary.MustParseKey("0000"), &search)
	m, p = st.Stats()
	if search.Cycles != 1 || m.Cycles != 0 || p.Cycles != 0 {
		t.Fatalf("search cycles = %d, arrays charged %d/%d", search.Cycles, m.Cycles, p.Cycles)
	}
}
