package core

import (
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

// Fault injection: the priority decision's one-hot guarantee doubles as
// an integrity check. Corrupting the antisymmetry of the priority
// matrix (a stuck-at or disturbed cell) makes two matched columns
// survive the NOR — and the decision path traffic reaches, the
// published view's, detects it: fail-stop without an auditor,
// fail-report with one.

// injectRowFault edits live row r of st's priority matrix through
// edit. Pending writes are flushed first, so none of them lands on the
// fault later.
func injectRowFault(st *Subtable, r int, edit func(*bitvec.Vector)) {
	st.flush()
	row := st.prio.ReadRow(r)
	edit(row)
	st.prio.WriteRow(r, row)
}

// expectDecidePanic runs the view's decision with no auditor attached
// and requires the fail-stop.
func expectDecidePanic(t *testing.T, sv *subtableView, mv *bitvec.Vector, what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s not detected", what)
		}
	}()
	viewDecide(sv, mv, nil)
}

// expectDecideReport runs the same decision with an auditor attached:
// one report_one_hot violation naming the subtable, and the answer the
// stored ranks give instead of a panic.
func expectDecideReport(t *testing.T, sv *subtableView, mv *bitvec.Vector, want int) {
	t.Helper()
	aud := flightrec.NewAuditor(nil, nil, 8, nil)
	if slot := viewDecide(sv, mv, aud); slot != want {
		t.Fatalf("fallback slot = %d, want %d (highest stored rank among the matched)", slot, want)
	}
	if n := aud.ViolationCount(flightrec.InvReportOneHot); n != 1 {
		t.Fatalf("report_one_hot violations = %d, want 1", n)
	}
	if v := aud.Violations(); len(v) != 1 || v[0].Subtable != sv.id {
		t.Fatalf("violation = %+v, want subtable %d", v, sv.id)
	}
}

func TestFaultInjectionPriorityMatrixDetected(t *testing.T) {
	st := testSubtable(8, 4)
	st.Insert(1, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 1, RuleID: 0}})
	st.Insert(4, Entry{Word: ternary.MustParse("10**"), Rank: Rank{Priority: 5, RuleID: 1}})
	st.Insert(6, Entry{Word: ternary.MustParse("100*"), Rank: Rank{Priority: 9, RuleID: 2}})

	// Healthy decision works.
	sv := st.snapshotView(nil, 0)
	mv := viewSearch(sv, ternary.MustParseKey("1000"), &sram.Stats{})
	if slot := viewDecide(sv, mv, nil); slot != 6 {
		t.Fatalf("pre-fault winner = %d", slot)
	}

	// Inject: clear P[6][4] — the winner's row bit that suppresses the
	// loser at slot 4. With P[4][6] already 0, neither matched column
	// is suppressed and the report vector carries two bits.
	injectRowFault(st, 6, func(row *bitvec.Vector) { row.Clear(4) })

	// The view published before the fault still decides correctly; the
	// next one carries the corrupted matrix.
	if slot := viewDecide(sv, mv, nil); slot != 6 {
		t.Fatalf("published view changed under the fault: winner = %d", slot)
	}
	sv = st.snapshotView(nil, 0)
	expectDecidePanic(t, sv, mv, "corrupted priority matrix")
	expectDecideReport(t, sv, mv, 6)
}

// CheckInvariant catches the same corruption statically.
func TestFaultInjectionCaughtByInvariant(t *testing.T) {
	st := testSubtable(8, 4)
	st.Insert(0, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 1, RuleID: 0}})
	st.Insert(1, Entry{Word: ternary.MustParse("10**"), Rank: Rank{Priority: 5, RuleID: 1}})
	if err := st.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	injectRowFault(st, 1, func(row *bitvec.Vector) { row.Clear(0) })
	if err := st.CheckInvariant(); err == nil {
		t.Fatal("invariant missed the corrupted cell")
	}
}

// A symmetric fault — a spurious 1 making two rules each "beat" the
// other — leaves no column unsuppressed: the report is empty, not
// one-hot, and is detected the same way.
func TestFaultInjectionMutualDominance(t *testing.T) {
	st := testSubtable(8, 4)
	st.Insert(2, Entry{Word: ternary.MustParse("1***"), Rank: Rank{Priority: 1, RuleID: 0}})
	st.Insert(5, Entry{Word: ternary.MustParse("10**"), Rank: Rank{Priority: 5, RuleID: 1}})
	// P[2][5] = 1 (spurious: rule0 also beats rule1 now).
	injectRowFault(st, 2, func(row *bitvec.Vector) { row.Set(5) })

	sv := st.snapshotView(nil, 0)
	mv := bitvec.FromIndices(8, 2, 5)
	expectDecidePanic(t, sv, mv, "mutual dominance")
	expectDecideReport(t, sv, mv, 5)
}
