package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// fakeCounter is a hand-driven (bad, total) source.
type fakeCounter struct {
	bad, total atomic.Uint64
}

func (f *fakeCounter) source() (uint64, uint64) { return f.bad.Load(), f.total.Load() }

func (f *fakeCounter) add(bad, total uint64) {
	f.bad.Add(bad)
	f.total.Add(total)
}

// TestBurnMath pins the burn-rate arithmetic: burn is the windowed
// bad-event fraction divided by the error budget.
func TestBurnMath(t *testing.T) {
	var fc fakeCounter
	e := New(Config{})
	e.Add(Objective{Name: "x", Target: 0.99, Source: fc.source})

	now := time.Unix(1000, 0)
	e.Sample(now)
	// One minute later: 1000 events, 50 bad. badFrac=0.05, budget=0.01,
	// burn=5 over both windows.
	fc.add(50, 1000)
	now = now.Add(time.Minute)
	e.Sample(now)
	st := e.Evaluate(now)
	o := st.Objectives[0]
	if o.FastBurn < 4.99 || o.FastBurn > 5.01 {
		t.Fatalf("fast burn = %v, want 5", o.FastBurn)
	}
	if o.SlowBurn < 4.99 || o.SlowBurn > 5.01 {
		t.Fatalf("slow burn = %v, want 5", o.SlowBurn)
	}
	if o.Burning || !st.Healthy {
		t.Fatalf("burn 5 under threshold %v must not page: %+v", DefaultThreshold, o)
	}
	if o.Bad != 50 || o.Total != 1000 {
		t.Fatalf("cumulative counters = %d/%d, want 50/1000", o.Bad, o.Total)
	}

	// An idle fast window (no new events) burns nothing.
	now = now.Add(DefaultFastWindow)
	e.Sample(now)
	if b := e.Evaluate(now).Objectives[0].FastBurn; b != 0 {
		t.Fatalf("idle fast window burns %v, want 0", b)
	}
}

// TestSamplePruning bounds the ring: points older than the slow window
// are dropped, but one pre-horizon baseline is retained.
func TestSamplePruning(t *testing.T) {
	var fc fakeCounter
	e := New(Config{})
	e.Add(Objective{Name: "x", Target: 0.999, Source: fc.source})
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		fc.add(0, 10)
		now = now.Add(15 * time.Second)
		e.Sample(now)
	}
	st := e.objs[0]
	// 1h window at 15s cadence = 240 in-window points + 1 baseline,
	// with a point or two of slack from the strict-inequality prune.
	if n := len(st.samples); n > 245 {
		t.Fatalf("ring grew to %d points, pruning broken", n)
	}
	if last := st.samples[len(st.samples)-1].at; !last.Equal(now) {
		t.Fatalf("newest sample %v, want %v", last, now)
	}
	if oldest := st.samples[0].at; now.Sub(oldest) < DefaultSlowWindow {
		t.Fatalf("oldest retained point %v inside the slow window; baseline lost", oldest)
	}
}

// TestObjectiveValidation pins the constructor contracts.
func TestObjectiveValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	e := New(Config{})
	if st := e.Evaluate(time.Unix(0, 0)); st.FastWindowSec != DefaultFastWindow.Seconds() ||
		st.SlowWindowSec != DefaultSlowWindow.Seconds() || st.Threshold != DefaultThreshold {
		t.Fatalf("status does not report the windows and threshold: %+v", st)
	}
	var fc fakeCounter
	mustPanic("target 0", func() { e.Add(Objective{Name: "a", Target: 0, Source: fc.source}) })
	mustPanic("target 1", func() { e.Add(Objective{Name: "b", Target: 1, Source: fc.source}) })
	mustPanic("nil source", func() { e.Add(Objective{Name: "c", Target: 0.9}) })
}

// TestHandler serves the evaluated status as JSON.
func TestHandler(t *testing.T) {
	var fc fakeCounter
	e := New(Config{})
	e.Add(Objective{Name: "lookup_p999", Description: "p999 under budget", Target: 0.999, Source: fc.source})
	e.Sample(time.Unix(0, 0))
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("/slo is not JSON: %v\n%s", err, rr.Body.String())
	}
	if !st.Healthy || len(st.Objectives) != 1 || st.Objectives[0].Name != "lookup_p999" {
		t.Fatalf("status = %+v", st)
	}
	if !strings.Contains(rr.Body.String(), "p999 under budget") {
		t.Fatal("description not surfaced")
	}
}

// TestEscalation pins the bounded-window semantics: raise once per
// activation, extend on re-trigger, restore only after the deadline.
func TestEscalation(t *testing.T) {
	var raised, restored int
	es := &Escalation{
		Window:  2 * time.Minute,
		Raise:   func() { raised++ },
		Restore: func() { restored++ },
	}
	now := time.Unix(0, 0)
	if es.Active() {
		t.Fatal("active before any trigger")
	}
	es.Trigger(now)
	es.Trigger(now.Add(time.Minute)) // extend, no re-raise
	if raised != 1 || !es.Active() || es.Count() != 1 {
		t.Fatalf("raised=%d active=%v count=%d after double trigger", raised, es.Active(), es.Count())
	}
	es.Tick(now.Add(2 * time.Minute)) // inside the extended window
	if restored != 0 || !es.Active() {
		t.Fatal("restored inside the extended window")
	}
	es.Tick(now.Add(3*time.Minute + time.Second)) // past deadline
	if restored != 1 || es.Active() {
		t.Fatalf("restored=%d active=%v after deadline", restored, es.Active())
	}
	es.Trigger(now.Add(4 * time.Minute))
	if raised != 2 || es.Count() != 2 {
		t.Fatalf("second activation: raised=%d count=%d", raised, es.Count())
	}
}

// TestSeededLatencyRegression is the ISSUE's acceptance path for the
// SLO engine: a latency regression seeded into the serving histogram
// trips the fast-burn window, the multi-window gate holds the page
// until the slow window confirms, the burn-start hook fires the
// sampling escalation (tracing to 1-in-1), and the escalation restores
// itself after its bounded window once the regression clears.
func TestSeededLatencyRegression(t *testing.T) {
	const latencyBudgetNs = 16384
	hist := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets)
	tracer := trace.NewTracer(16)
	tracer.SetSampleEvery(1024) // steady-state: 1-in-1024

	var raised, restored bool
	esc := &Escalation{
		Window:  2 * time.Minute,
		Raise:   func() { raised = true; tracer.SetSampleEvery(1) },
		Restore: func() { restored = true; tracer.SetSampleEvery(1024) },
	}
	now := time.Unix(10_000, 0)
	var burnStarts, burnEnds int
	e := New(Config{
		OnBurnStart: func(string) {
			burnStarts++
			esc.Trigger(now)
		},
		OnBurnEnd: func(string) { burnEnds++ },
	})
	e.Add(Objective{
		Name:        "lookup_latency_p999",
		Description: "99.9% of classify batches under the latency budget",
		Target:      0.999,
		Source: func() (uint64, uint64) {
			return hist.CountAbove(latencyBudgetNs), hist.Count()
		},
	})

	const interval = 15 * time.Second
	step := func(good, bad int) Status {
		for i := 0; i < good; i++ {
			hist.Observe(600) // healthy: sub-µs batches
		}
		for i := 0; i < bad; i++ {
			hist.Observe(100_000) // regression: 100µs batches
		}
		now = now.Add(interval)
		e.Sample(now)
		st := e.Evaluate(now)
		esc.Tick(now)
		return st
	}

	// 20 minutes healthy.
	for i := 0; i < 80; i++ {
		if st := step(1000, 0); !st.Healthy {
			t.Fatalf("healthy traffic paged at t=%v: %+v", now, st.Objectives[0])
		}
	}

	// Regression begins: 20% of batches blow the budget. The fast
	// window must exceed the threshold quickly, but the page waits for
	// the slow window's confirmation.
	var fastTrippedEarly bool
	trippedAt := time.Time{}
	for i := 0; i < 40 && trippedAt.IsZero(); i++ {
		st := step(800, 200)
		o := st.Objectives[0]
		if o.FastBurn >= DefaultThreshold && !o.Burning {
			fastTrippedEarly = true
		}
		if o.Burning {
			trippedAt = now
		}
	}
	if trippedAt.IsZero() {
		t.Fatal("sustained 20% latency regression never paged")
	}
	if !fastTrippedEarly {
		t.Fatal("fast window never led the slow window; multi-window gate untested")
	}
	if burnStarts != 1 {
		t.Fatalf("burn started %d times, want 1", burnStarts)
	}
	if !raised || !esc.Active() {
		t.Fatal("burn start did not raise the sampling escalation")
	}
	// Escalated sampling really is 1-in-1: every request is traced.
	for i := 0; i < 3; i++ {
		tr := tracer.Start("probe")
		if tr == nil {
			t.Fatal("escalated tracer skipped a request")
		}
		tracer.Finish(tr)
	}

	// Regression clears. The burn keeps re-triggering the escalation
	// while it lasts; once the fast window drains, the burn ends, and
	// the escalation's bounded window expires shortly after.
	cleared := false
	for i := 0; i < 120; i++ {
		st := step(1000, 0)
		if st.Healthy {
			cleared = true
		}
		if cleared && !esc.Active() {
			break
		}
	}
	if !cleared {
		t.Fatal("burn never ended after the regression cleared")
	}
	if burnEnds != 1 {
		t.Fatalf("burn ended %d times, want 1", burnEnds)
	}
	if esc.Active() || !restored {
		t.Fatal("escalation never restored after its window expired")
	}
	// Restored sampling is back to 1-in-1024: the next probe is
	// overwhelmingly likely unsampled; check the counter-based contract
	// instead of luck — 10 probes at 1-in-1024 must not all sample.
	sampled := 0
	for i := 0; i < 10; i++ {
		if tr := tracer.Start("probe"); tr != nil {
			sampled++
			tracer.Finish(tr)
		}
	}
	if sampled > 1 {
		t.Fatalf("restored tracer sampled %d of 10 probes; restore did not lower the rate", sampled)
	}
}
