package flightrec

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// TestSamplerGating drives the 1-in-N gate (a telemetry.Sampler) where
// each instrument meets it: the auditor's SampleLookup and the shadow's
// Sample.
func TestSamplerGating(t *testing.T) {
	aud := NewAuditor(nil, nil, 4, nil)
	sh := NewShadow(swclass.NewLinear(), aud, -1)
	gates := []struct {
		name     string
		setEvery func(uint64)
		hit      func() bool
	}{
		{"auditor", aud.SetLookupSampleEvery, aud.SampleLookup},
		{"shadow", sh.SetSampleEvery, sh.Sample},
	}
	for _, g := range gates {
		for i := 0; i < 10; i++ {
			if g.hit() {
				t.Fatalf("%s: disabled sampler fired", g.name)
			}
		}
		g.setEvery(1)
		for i := 0; i < 10; i++ {
			if !g.hit() {
				t.Fatalf("%s: every=1 sampler missed", g.name)
			}
		}
		g.setEvery(4)
		hits := 0
		for i := 0; i < 400; i++ {
			if g.hit() {
				hits++
			}
		}
		if hits != 100 {
			t.Fatalf("%s: every=4 sampler hit %d/400, want 100", g.name, hits)
		}
	}
}

func TestAuditorCountersAndRing(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewAuditor(reg, nil, 2, telemetry.Labels{"table": "3"})

	a.CheckPass(InvReportOneHot)
	a.Check(InvReportOneHot, true, func() Violation { t.Fatal("detail called on pass"); return Violation{} })
	if a.Checks(InvReportOneHot) != 2 || a.ViolationCount(InvReportOneHot) != 0 {
		t.Fatalf("pass accounting wrong: %d/%d", a.Checks(InvReportOneHot), a.ViolationCount(InvReportOneHot))
	}

	for i := 0; i < 3; i++ {
		a.Fail(Violation{Invariant: InvEvictionBound, Subtable: i, RuleID: 10 + i,
			Detail: "chain too long"})
	}
	if a.Checks(InvEvictionBound) != 3 || a.ViolationCount(InvEvictionBound) != 3 {
		t.Fatalf("fail accounting wrong")
	}
	if a.TotalChecks() != 5 || a.TotalViolations() != 3 {
		t.Fatalf("totals wrong: %d/%d", a.TotalChecks(), a.TotalViolations())
	}

	// keep=2 ring retains the two most recent, oldest-first.
	vs := a.Violations()
	if len(vs) != 2 || vs[0].Seq != 2 || vs[1].Seq != 3 {
		t.Fatalf("violation ring wrong: %+v", vs)
	}
	// The "table" label propagates into every retained violation, which
	// keeps what its reporter filled in.
	for i, v := range vs {
		if v.Table != 3 || v.Invariant != InvEvictionBound || v.RuleID != 11+i || v.Detail == "" {
			t.Fatalf("violation %d = %+v, want table 3, eviction_bound, rule %d, a detail", i, v, 11+i)
		}
	}

	// Exported counter series carry the invariant label.
	snap := reg.Snapshot()
	key := `catcam_audit_violations_total{invariant="eviction_bound",table="3"}`
	if snap.Counters[key] != 3 {
		t.Fatalf("counter %s = %d, want 3 (have %v)", key, snap.Counters[key], snap.Counters)
	}
}

func TestAuditorReportAndHandler(t *testing.T) {
	a := NewAuditor(nil, nil, 8, nil)
	// With nothing failed, /debug/audit serves an empty array, not null.
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/audit", nil))
	if !strings.Contains(rec.Body.String(), `"violations": []`) {
		t.Fatalf("clean audit body lacks an empty violations array:\n%s", rec.Body.String())
	}

	a.SetLookupSampleEvery(2)
	a.CheckPass(InvBitPlaneParity)
	a.Fail(Violation{Invariant: InvPriorityMatrix, Subtable: 1, Detail: "bit flip"})
	a.RecordSweep(SweepInfo{Checks: 10, Violations: 1, DurationMs: 0.5})

	rep := a.Report()
	if rep.TotalChecks != 2 || rep.TotalViolations != 1 || rep.LookupSampleEvery != 2 {
		t.Fatalf("report totals wrong: %+v", rep)
	}
	if rep.Sweeps != 1 || rep.LastSweep == nil || rep.LastSweep.Checks != 10 {
		t.Fatalf("sweep info wrong: %+v", rep.LastSweep)
	}
	if len(rep.Invariants) != invariantCount {
		t.Fatalf("report lists %d invariants, want %d", len(rep.Invariants), invariantCount)
	}

	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/audit?n=0", nil))
	var body Report
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Violations) != 0 || body.TotalViolations != 1 {
		t.Fatalf("n=0 handler body wrong: %+v", body)
	}

	// Default table stays -1 when no label is given.
	if vs := a.Violations(); vs[0].Table != 0 && vs[0].Table != -1 {
		t.Fatalf("unexpected table %d", vs[0].Table)
	}
}

func TestAuditorNilSafety(t *testing.T) {
	var a *Auditor
	a.CheckPass(InvReportOneHot)
	a.Fail(Violation{})
	a.SetLookupSampleEvery(1)
	if a.SampleLookup() || a.TotalChecks() != 0 || a.Violations() != nil {
		t.Fatal("nil auditor not inert")
	}
	if !a.Check(InvReportOneHot, true, nil) || a.Check(InvReportOneHot, false, nil) {
		t.Fatal("nil auditor Check should pass through ok")
	}
	a.RecordSweep(SweepInfo{})
	_ = a.Report()
}

func testRule(id, prio int) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio, Action: 100 + id,
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func TestShadowAgreementAndMismatch(t *testing.T) {
	a := NewAuditor(nil, nil, 8, nil)
	s := NewShadow(swclass.NewLinear(), a, -1)
	s.SetSampleEvery(1)

	// Each mirror call is bracketed the way the device brackets an
	// update: BeginEpoch, the mirror, then SetEpoch of the new epoch.
	r := testRule(1, 10)
	s.BeginEpoch()
	s.OnInsert(r)
	s.SetEpoch(1)
	h := rules.Header{Proto: 6}

	// Agreement: device reports what the reference would.
	s.ObserveEpoch(h, r.Action, true, 1)
	if a.ViolationCount(InvShadowMatch) != 0 || a.Checks(InvShadowMatch) != 1 {
		t.Fatalf("agreeing observe misreported: %d/%d",
			a.Checks(InvShadowMatch), a.ViolationCount(InvShadowMatch))
	}

	// Action mismatch and hit/miss mismatch both fire.
	s.ObserveEpoch(h, r.Action+1, true, 1)
	s.ObserveEpoch(h, 0, false, 1)
	if a.ViolationCount(InvShadowMatch) != 2 {
		t.Fatalf("mismatches not detected: %d", a.ViolationCount(InvShadowMatch))
	}

	// An answer from another epoch than the one the reference mirrors
	// is skipped, not compared: mid-update, or from a retired epoch.
	s.BeginEpoch()
	s.ObserveEpoch(h, 0, false, 1)
	s.OnDelete(r.ID)
	s.SetEpoch(2)
	s.ObserveEpoch(h, r.Action+1, true, 1)
	if a.Checks(InvShadowMatch) != 3 {
		t.Fatalf("an observe of another epoch was compared: %d checks", a.Checks(InvShadowMatch))
	}

	// After deleting the rule the reference misses; a device miss agrees.
	s.ObserveEpoch(h, 0, false, 2)
	if a.ViolationCount(InvShadowMatch) != 2 || a.Checks(InvShadowMatch) != 4 {
		t.Fatal("miss/miss flagged as mismatch")
	}
}

func TestShadowDesync(t *testing.T) {
	a := NewAuditor(nil, nil, 8, nil)
	s := NewShadow(swclass.NewLinear(), a, -1)
	s.SetSampleEvery(1)
	s.OnInsert(testRule(1, 10))

	// A failing mirror op (duplicate insert) desyncs instead of raising
	// a violation: the reference broke, not the device.
	s.OnInsert(testRule(1, 20))
	if down, reason := s.Desynced(); !down || reason == "" {
		t.Fatalf("duplicate mirror insert did not desync: %v %q", down, reason)
	}
	if s.Sample() {
		t.Fatal("desynced shadow still sampling")
	}
	s.ObserveEpoch(rules.Header{}, 0, false, 0)
	if a.TotalChecks() != 0 {
		t.Fatal("desynced shadow still observing")
	}
}

func TestShadowNilSafety(t *testing.T) {
	var s *Shadow
	s.OnInsert(rules.Rule{})
	s.OnDelete(0)
	s.Desync("x")
	s.BeginEpoch()
	s.SetEpoch(1)
	s.ObserveEpoch(rules.Header{}, 0, false, 1)
	s.SetSampleEvery(1)
	if s.Sample() {
		t.Fatal("nil shadow sampled")
	}
	if down, _ := s.Desynced(); down {
		t.Fatal("nil shadow desynced")
	}
}

// TestConcurrentAuditAndTrace exercises the lock-free paths under the
// race detector: concurrent check/fail accounting, shadow mirroring and
// report reads, beside update-trace publication on a shared tracer.
func TestConcurrentAuditAndTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	tt := trace.NewTracer(32)
	tt.SetSampleEvery(2)
	a := NewAuditor(reg, nil, 16, nil)
	a.SetLookupSampleEvery(2)
	s := NewShadow(swclass.NewLinear(), a, -1)
	s.SetSampleEvery(1)
	for i := 0; i < 8; i++ {
		s.OnInsert(testRule(i, 10+i))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tt.StartUpdate("insert", i, -1, -1)
				tr.Step(trace.StageEntryWrite, g, i, 3)
				tt.FinishUpdate(tr, 3, nil)
				if a.SampleLookup() {
					a.CheckPass(InvReportOneHot)
				}
				if i%50 == 0 {
					a.Fail(Violation{Invariant: InvEvictionBound, Subtable: g, Detail: "x"})
				}
				s.ObserveEpoch(rules.Header{Proto: 6}, 100, true, 0)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tt.Snapshot()
			_ = a.Report()
			_ = a.Violations()
		}
	}()
	wg.Wait()

	if tt.Total() != 400 {
		t.Fatalf("expected 400 sampled traces, got %d", tt.Total())
	}
	if a.ViolationCount(InvEvictionBound) != 16 {
		t.Fatalf("expected 16 eviction-bound violations, got %d", a.ViolationCount(InvEvictionBound))
	}
}
