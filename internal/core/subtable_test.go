package core

import (
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

// TestPriorityStoreBroadcast: CompareAll splits the valid slots into the
// new rank's row (slots it beats) and column (slots that beat it).
func TestPriorityStoreBroadcast(t *testing.T) {
	s := NewPriorityStore(8)
	s.Set(1, Rank{Priority: 10})
	s.Set(3, Rank{Priority: 30})
	s.Set(5, Rank{Priority: 50})
	row, col := bitvec.New(8), bitvec.New(8)
	row.SetAll() // CompareAll overwrites, never accumulates
	s.CompareAll(Rank{Priority: 40}, row, col)
	if got := row.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("row = %v, want [1 3]", got)
	}
	if got := col.Indices(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("col = %v, want [5]", got)
	}
	if s.MaxSlot() != 5 {
		t.Fatalf("MaxSlot = %d", s.MaxSlot())
	}
	s.Clear(5)
	if s.MaxSlot() != 3 {
		t.Fatalf("MaxSlot after clear = %d", s.MaxSlot())
	}
	if _, ok := s.Rank(5); ok {
		t.Fatal("cleared slot still has rank")
	}
	if s.Count() != 2 || s.Capacity() != 8 {
		t.Fatal("counts wrong")
	}
	if raceEnabled {
		return // race instrumentation perturbs allocation counts
	}
	if n := testing.AllocsPerRun(10, func() { s.CompareAll(Rank{Priority: 40}, row, col) }); n != 0 {
		t.Errorf("CompareAll allocates %.1f/op", n)
	}

	// Ties: 200 slots (three full words and an 8-slot tail) whose ranks
	// share priorities, and within a priority rule IDs, so the rule ID
	// and then the sequence decide; every fifth slot vacant, and the
	// slots of one word all valid. Each broadcast must agree with Beats
	// slot by slot, and say nothing of a vacant slot.
	s = NewPriorityStore(200)
	for i := 0; i < s.Capacity(); i++ {
		if i%5 == 4 && i/64 != 1 {
			continue
		}
		s.Set(i, Rank{Priority: i % 3, RuleID: i / 7 % 2, Seq: i})
	}
	row, col = bitvec.New(200), bitvec.New(200)
	for _, r := range []Rank{
		{Priority: 1, RuleID: 1, Seq: 100}, // ties priority and rule ID with stored ranks
		{Priority: 1, RuleID: 0, Seq: 1000},
		{Priority: 2, RuleID: 1, Seq: -1},
		{Priority: -1}, {Priority: 3}, // beats none, beats all
	} {
		s.CompareAll(r, row, col)
		for i := 0; i < s.Capacity(); i++ {
			o, valid := s.Rank(i)
			wantRow, wantCol := valid && r.Beats(o), valid && o.Beats(r)
			if row.Get(i) != wantRow || col.Get(i) != wantCol {
				t.Fatalf("new %v vs slot %d %v (valid %v): row %v col %v, want %v %v",
					r, i, o, valid, row.Get(i), col.Get(i), wantRow, wantCol)
			}
		}
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
