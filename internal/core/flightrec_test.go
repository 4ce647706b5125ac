package core

import (
	"sync"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/classbench"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/ternary"
	"catcam/internal/trace"
)

// republish forces a fresh snapshot publication covering every
// subtable and the global matrix. The corruption tests below poke
// fault bits straight into the live arrays — bypassing the update path
// that normally touches that state and republishes — so they must
// republish by hand before the lock-free lookup path can observe the
// fault, exactly as a real update touching that state would.
func republish(d *Device) {
	d.mu.Lock()
	for id := range d.subs {
		d.touched = append(d.touched, id)
	}
	d.globalDirty = true
	d.publishLocked()
	d.mu.Unlock()
}

// instrumented attaches an update tracer and a full flight-recorder
// suite (all sampling at 1-in-1) to a fresh device.
func instrumented(cfg Config) (*Device, *trace.Tracer, *flightrec.Auditor, *flightrec.Shadow) {
	d := NewDevice(cfg)
	tt := trace.NewTracer(512)
	tt.SetSampleEvery(1)
	aud := flightrec.NewAuditor(nil, nil, 32, nil)
	aud.SetLookupSampleEvery(1)
	sh := flightrec.NewShadow(swclass.NewLinear(), aud, -1)
	sh.SetSampleEvery(1)
	d.AttachTracer(tt)
	d.AttachAuditor(aud)
	d.AttachShadow(sh)
	return d, tt, aud, sh
}

// checkUpdateTrace asserts the shape every update trace has: its step
// spans tile the trace from its start, one after another, and the last
// and only publish span ends it. A request that succeeded also has step
// cycles summing to its modelled cost.
func checkUpdateTrace(t *testing.T, tr *trace.Trace) {
	t.Helper()
	n := len(tr.Spans)
	if n == 0 || tr.Spans[n-1].Stage != trace.StagePublish {
		t.Fatalf("trace %d (%s rule %d) does not end in a publish span: %+v", tr.ID, tr.Kind, tr.RuleID, tr.Spans)
	}
	end := tr.StartNs
	for i, sp := range tr.Spans {
		if sp.StartNs != end {
			t.Fatalf("trace %d step %d (%s) starts at %d, previous step ended at %d", tr.ID, i, sp.Stage, sp.StartNs, end)
		}
		if sp.Stage == trace.StagePublish && i != n-1 {
			t.Fatalf("trace %d: publish at step %d of %d", tr.ID, i, n)
		}
		end = sp.End()
	}
	if tr.Err == "" && tr.SpanCycles() != tr.Cycles {
		t.Fatalf("trace %d (%s rule %d): step cycles %d != request cycles %d: %+v",
			tr.ID, tr.Kind, tr.RuleID, tr.SpanCycles(), tr.Cycles, tr.Spans)
	}
}

// TestFlightRecorderCleanChurn drives ClassBench install/lookup/churn
// traffic with every instrument sampling at 100% and demands a
// perfectly clean bill: no invariant violations inline or from the
// sweep, no shadow divergence, and every update trace well formed, its
// step cycles summing to the request's modelled cost.
func TestFlightRecorderCleanChurn(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 120, Seed: 77})
	d, tt, aud, sh := instrumented(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})

	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("insert %d: %v", r.ID, err)
		}
	}
	headers := classbench.PacketTrace(rs, 256, 0.9, 78)
	for _, h := range headers {
		d.Lookup(h)
	}
	for i, r := range rs.Rules {
		switch i % 3 {
		case 0:
			if _, err := d.DeleteRule(r.ID); err != nil {
				t.Fatalf("delete %d: %v", r.ID, err)
			}
		case 1:
			mod := r
			mod.Action++
			if _, err := d.ModifyRule(r.ID, mod); err != nil {
				t.Fatalf("modify %d: %v", r.ID, err)
			}
		}
	}
	for _, h := range headers {
		d.Lookup(h)
	}

	if info := d.AuditSweep(); info.Violations != 0 || info.Checks == 0 {
		t.Fatalf("sweep: %+v", info)
	}
	if v := aud.TotalViolations(); v != 0 {
		t.Fatalf("%d violations on clean churn: %+v", v, aud.Violations())
	}
	for _, inv := range []flightrec.Invariant{
		flightrec.InvReportOneHot, flightrec.InvWinnerAgreement,
		flightrec.InvShadowMatch, flightrec.InvPriorityMatrix,
		flightrec.InvIntervalDisjoint, flightrec.InvBitPlaneParity,
	} {
		if aud.Checks(inv) == 0 {
			t.Errorf("invariant %v never checked", inv)
		}
	}
	if desynced, reason := sh.Desynced(); desynced {
		t.Fatalf("shadow desynced: %s", reason)
	}

	traces := tt.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no traces recorded at 100%% sampling")
	}
	for _, tr := range traces {
		checkUpdateTrace(t, tr)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceReallocSteps forces the 5-cycle reallocating insert on a
// tiny geometry and checks the causal record: an evict-locate, the
// entry write into the vacated slot, the eviction hop, and per-step
// cycles summing to the class cost.
func TestTraceReallocSteps(t *testing.T) {
	d, tt, aud, _ := instrumented(Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160})
	w := ternary.MustParse("1***")
	for i := 0; i < 8; i++ {
		if _, err := d.InsertWord(w, i, i, i); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	res, err := d.InsertWord(w, -1, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInsertRealloc || res.Reallocated != 1 {
		t.Fatalf("expected single-eviction realloc, got %+v", res)
	}
	traces := tt.Snapshot()
	tr := traces[len(traces)-1]
	if tr.Kind != "insert_word" || tr.RuleID != 100 || tr.Cycles != ClassInsertRealloc.Cycles() {
		t.Fatalf("unexpected trace %+v", tr)
	}
	checkUpdateTrace(t, tr)
	var kinds []trace.Stage
	for _, s := range tr.Spans {
		kinds = append(kinds, s.Stage)
	}
	want := map[trace.Stage]bool{
		trace.StageEvictLocate: false, trace.StageEntryWrite: false,
		trace.StageEvictionHop: false, trace.StageMaxRederive: false,
	}
	for _, k := range kinds {
		if _, tracked := want[k]; tracked {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("realloc trace missing %v step: %v", k, kinds)
		}
	}
	if aud.Checks(flightrec.InvEvictionBound) == 0 || aud.ViolationCount(flightrec.InvEvictionBound) != 0 {
		t.Fatalf("eviction bound: %d checks, %d violations",
			aud.Checks(flightrec.InvEvictionBound), aud.ViolationCount(flightrec.InvEvictionBound))
	}
}

// TestChainedReallocationViolatesEvictionBound proves the eviction
// bound audit fires on the paper's ablation: with chained reallocation
// enabled, one insert displaces several entries, and the auditor flags
// exactly the O(k)-update behavior §VI rules out.
func TestChainedReallocationViolatesEvictionBound(t *testing.T) {
	d, tt, aud, _ := instrumented(Config{
		Subtables: 4, SubtableCapacity: 4, KeyWidth: 160, ChainedReallocation: true,
	})
	w := ternary.MustParse("1***")
	for i := 0; i < 12; i++ {
		if _, err := d.InsertWord(w, i, i, i); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	res, err := d.InsertWord(w, -1, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocated <= 1 {
		t.Fatalf("ablation did not chain: %+v", res)
	}
	if aud.ViolationCount(flightrec.InvEvictionBound) == 0 {
		t.Fatal("chained reallocation not flagged by the eviction-bound audit")
	}
	traces := tt.Snapshot()
	checkUpdateTrace(t, traces[len(traces)-1])
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditorDetectsCorruptedLocalMatrix seeds the fault_test.go
// corruption — a cleared dominance bit in a local priority matrix —
// with an auditor attached: instead of the fail-stop panic, the lookup
// records a report_one_hot violation and still answers correctly from
// the stored ranks, and the background sweep pins the corrupted matrix.
func TestAuditorDetectsCorruptedLocalMatrix(t *testing.T) {
	d, _, aud, _ := instrumented(Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160})
	if _, err := d.InsertWord(ternary.MustParse("1***"), 1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertWord(ternary.MustParse("10**"), 5, 1, 200); err != nil {
		t.Fatal(err)
	}
	st := d.subs[d.order[0]]
	win := st.store.MaxSlot()
	lose := -1
	for s := 0; s < st.Capacity(); s++ {
		if _, ok := st.Rank(s); ok && s != win {
			lose = s
		}
	}
	injectRowFault(st, win, func(row *bitvec.Vector) { row.Clear(lose) })
	republish(d)

	e, ok := classifyKey(d, paddedKey(d, "1000"))
	if !ok || e.Action != 200 {
		t.Fatalf("fallback answer = %+v/%v, want action 200", e, ok)
	}
	if aud.ViolationCount(flightrec.InvReportOneHot) == 0 {
		t.Fatal("non-one-hot local report not flagged")
	}
	if d.AuditSweep(); aud.ViolationCount(flightrec.InvPriorityMatrix) == 0 {
		t.Fatal("sweep missed the corrupted priority matrix")
	}
}

// TestAuditorDetectsCorruptedGlobalMatrix clears a dominance bit of the
// global priority matrix: the global report carries two subtables, the
// lookup falls back to the metadata interval walk (still correct), and
// the sweep flags the matrix/metadata disagreement.
func TestAuditorDetectsCorruptedGlobalMatrix(t *testing.T) {
	d, _, aud, _ := instrumented(Config{Subtables: 4, SubtableCapacity: 2, KeyWidth: 160})
	w := ternary.MustParse("1***")
	for i := 0; i < 4; i++ {
		if _, err := d.InsertWord(w, i, i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.order) < 2 {
		t.Fatalf("expected 2 active subtables, got %d", len(d.order))
	}
	top, bottom := d.order[1], d.order[0]
	row := d.global.ReadRow(top)
	row.Clear(bottom)
	d.global.WriteRow(top, row)
	republish(d)

	e, ok := classifyKey(d, paddedKey(d, "1000"))
	if !ok || e.Action != 103 {
		t.Fatalf("fallback answer = %+v/%v, want action 103", e, ok)
	}
	if aud.ViolationCount(flightrec.InvReportOneHot) == 0 {
		t.Fatal("non-one-hot global report not flagged")
	}
	if d.AuditSweep(); aud.ViolationCount(flightrec.InvIntervalDisjoint) == 0 {
		t.Fatal("sweep missed the corrupted global matrix")
	}
}

// TestGlobalMatrixNamingAnotherSubtable inverts one dominance pair of
// the global matrix, so the report is one-hot but names the lower of
// two matching subtables. The lookup answers from the subtable the
// matrix named, whose match vector the walk did not keep, and charges
// only the walk's searches; the inline audit flags the disagreement.
func TestGlobalMatrixNamingAnotherSubtable(t *testing.T) {
	d, _, aud, _ := instrumented(Config{Subtables: 4, SubtableCapacity: 2, KeyWidth: 160})
	// The top subtable's match vector for key 1000 differs from the
	// bottom one's, so deciding over the wrong vector shows.
	for i, w := range []string{"1***", "1***", "1***", "0***"} {
		if _, err := d.InsertWord(ternary.MustParse(w), i, i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	top, bottom := d.order[1], d.order[0]
	row := d.global.ReadRow(top)
	row.Clear(bottom)
	d.global.WriteRow(top, row)
	row = d.global.ReadRow(bottom)
	row.Set(top)
	d.global.WriteRow(bottom, row)
	republish(d)

	match0, _, _ := d.ArrayStats()
	e, ok := classifyKey(d, paddedKey(d, "1000"))
	if !ok || e.Action != 101 {
		t.Fatalf("answer = %+v/%v, want action 101 (the best entry of the subtable the matrix named)", e, ok)
	}
	if match1, _, _ := d.ArrayStats(); match1.Searches-match0.Searches != 2 {
		t.Fatalf("lookup charged %d searches, want 2 (one per active subtable)", match1.Searches-match0.Searches)
	}
	if aud.ViolationCount(flightrec.InvWinnerAgreement) == 0 {
		t.Fatal("global matrix / interval order disagreement not flagged")
	}
}

// TestAuditSweepDetectsPlaneFault desynchronizes a bit-sliced value
// plane from its row-major word, skews a filter count against the
// stored words, or undercounts a stored-care count against the care
// planes, and checks the sweep's bit-plane parity audit catches it.
func TestAuditSweepDetectsPlaneFault(t *testing.T) {
	for name, inject := range map[string]func(st *Subtable, slot int) bool{
		"value plane":  func(st *Subtable, slot int) bool { return st.match.InjectPlaneFault(slot) >= 0 },
		"filter count": func(st *Subtable, slot int) bool { return st.match.InjectFilterFault(slot) },
		"stored count": func(st *Subtable, slot int) bool { return st.match.InjectStoredFault(slot) >= 0 },
	} {
		d, _ := loadedDevice(t, 60)
		aud := flightrec.NewAuditor(nil, nil, 8, nil)
		d.AttachAuditor(aud)
		st := d.subs[d.order[0]]
		if !inject(st, st.store.ValidRef().First()) {
			t.Fatalf("%s: nothing to corrupt", name)
		}
		info := d.AuditSweep()
		if info.Violations == 0 || aud.ViolationCount(flightrec.InvBitPlaneParity) == 0 {
			t.Fatalf("%s fault not detected: sweep %+v, parity violations %d",
				name, info, aud.ViolationCount(flightrec.InvBitPlaneParity))
		}
	}
}

// TestShadowFlagsDivergence makes the device and the reference
// genuinely disagree — the reference carries a rule the device never
// saw — and checks the sampled differential lookup reports it.
func TestShadowFlagsDivergence(t *testing.T) {
	d, _, aud, sh := instrumented(Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160})
	r := rules.Rule{ID: 1, Priority: 9, Action: 42,
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange()}
	sh.OnInsert(r) // reference-only: device stays empty

	h := rules.Header{}
	if _, ok := d.Lookup(h); ok {
		t.Fatal("empty device matched")
	}
	if aud.ViolationCount(flightrec.InvShadowMatch) == 0 {
		t.Fatal("device/reference divergence not flagged")
	}
}

// TestInsertWordDesyncsShadow: raw word inserts bypass the rule-level
// mirror, so the shadow must retire itself instead of reporting noise.
func TestInsertWordDesyncsShadow(t *testing.T) {
	d, _, aud, sh := instrumented(Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160})
	if _, err := d.InsertWord(ternary.MustParse("1***"), 1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if desynced, _ := sh.Desynced(); !desynced {
		t.Fatal("shadow still live after raw word insert")
	}
	d.Lookup(rules.Header{})
	if aud.Checks(flightrec.InvShadowMatch) != 0 {
		t.Fatal("desynced shadow still observing")
	}
}

// TestLookupAllocFreeInstrumented pins the zero-allocation guarantee with the
// update tracer and the whole flight-recorder suite attached but
// sampling off: the classify fast path must still allocate nothing.
func TestLookupAllocFreeInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	d, headers := loadedDevice(t, 100)
	aud := flightrec.NewAuditor(nil, nil, 8, nil)
	sh := flightrec.NewShadow(swclass.NewLinear(), aud, -1)
	d.AttachTracer(trace.NewTracer(64))
	d.AttachAuditor(aud)
	d.AttachShadow(sh)

	keys := make([]ternary.Key, len(headers))
	for i, h := range headers {
		keys[i] = headerKey(d, h)
	}
	results := make([]LookupResult, 0, len(headers))
	d.LookupBatch(keys, results[:0])

	if n := testing.AllocsPerRun(20, func() {
		results = d.LookupBatch(keys, results[:0])
	}); n != 0 {
		t.Errorf("LookupBatch allocates %.1f/op with sampling off", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		d.Lookup(headers[0])
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f/op with sampling off", n)
	}
}

// TestAuditSweepConcurrent races sweeps against lookups and churn;
// meaningful under -race. Everything must stay violation-free.
func TestAuditSweepConcurrent(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 80, Seed: 5})
	d, _, aud, _ := instrumented(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	aud.SetLookupSampleEvery(4)
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	headers := classbench.PacketTrace(rs, 128, 0.9, 6)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for _, h := range headers[:32] {
					d.Lookup(h)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r := rs.Rules[i%len(rs.Rules)]
			d.DeleteRule(r.ID)
			d.InsertRule(r)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			d.AuditSweep()
		}
	}()
	wg.Wait()

	if v := aud.TotalViolations(); v != 0 {
		t.Fatalf("%d violations under concurrent churn: %+v", v, aud.Violations())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
