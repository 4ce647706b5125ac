package ingress

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"catcam/internal/core"
	"catcam/internal/oracle"
	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/telemetry"
	tracepkg "catcam/internal/trace"
)

func testDevice(t testing.TB, nRules int) (*core.Device, *rules.Ruleset) {
	t.Helper()
	d := core.NewDevice(core.Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160, FrequencyMHz: 500})
	rs := testRuleset(nRules)
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("install rule %d: %v", r.ID, err)
		}
	}
	return d, rs
}

// TestEngineEndToEnd runs the full pipeline — generator, dispatch,
// rings, workers, cache, slow path — and checks every decision against
// a direct device lookup on the quiesced ruleset.
//
//catcam:allow ring "test goroutine is the single producer; workers consume"
func TestEngineEndToEnd(t *testing.T) {
	dev, rs := testDevice(t, 200)
	reg := telemetry.NewRegistry()

	type decided struct {
		h rules.Header
		r Result
	}
	var mu sync.Mutex
	var got []decided

	e := New(Config{
		Workers:       2,
		RingSize:      256,
		Burst:         32,
		FlowCacheSize: 4096,
		Backend:       NewLookupBackend(dev),
		Sink: func(worker int, hs []rules.Header, results []Result) {
			mu.Lock()
			for i := range hs {
				got = append(got, decided{hs[i], results[i]})
			}
			mu.Unlock()
		},
	})
	e.AttachTelemetry(reg, nil)
	e.Start()

	gen := NewGenerator(rs, GenConfig{Flows: 2000, ZipfS: 1.2, Seed: 9})
	const total = 20032 // 626 bursts of 64
	hs := make([]rules.Header, 64)
	sentAll := 0
	for sentAll < total {
		gen.Fill(hs)
		sentAll += len(hs)
		for _, h := range hs {
			for !e.Dispatch(h) { // retry instead of dropping: exactness matters here
				time.Sleep(time.Microsecond)
			}
		}
	}
	// Wait for the workers to drain everything, then stop.
	for start := time.Now(); ; {
		if s := e.Snapshot(); s.Packets == uint64(sentAll) {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("workers drained %d of %d packets", e.Snapshot().Packets, sentAll)
		}
		time.Sleep(time.Millisecond)
	}
	stats := e.Stop()

	if stats.Packets != uint64(total) {
		t.Fatalf("stats.Packets = %d, want %d", stats.Packets, total)
	}
	if stats.CacheHits+stats.CacheMisses != stats.Packets {
		t.Fatalf("hits %d + misses %d != packets %d", stats.CacheHits, stats.CacheMisses, stats.Packets)
	}
	if stats.HitRate() < 0.5 {
		t.Errorf("hit rate %.2f under Zipf 1.2 with 2000 flows; cache not working", stats.HitRate())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("sink saw %d packets, want %d", len(got), total)
	}
	for _, d := range got {
		action, ok := dev.Lookup(d.h)
		if d.r.Matched != ok || (ok && d.r.Action != int32(action)) {
			t.Fatalf("decision for %v: engine (%d, %v), device (%d, %v)",
				d.h, d.r.Action, d.r.Matched, action, ok)
		}
	}
	// Telemetry mirrored the stats.
	if v := counterValue(t, reg, "catcam_ingress_packets_total"); v != uint64(total) {
		t.Errorf("packets counter = %d, want %d", v, total)
	}
	if v := counterValue(t, reg, "catcam_ingress_cache_hits_total"); v != stats.CacheHits {
		t.Errorf("hits counter = %d, want %d", v, stats.CacheHits)
	}
	if v := counterValue(t, reg, "catcam_ingress_cache_stale_misses_total"); v != stats.StaleMisses {
		t.Errorf("stale-misses counter = %d, want %d", v, stats.StaleMisses)
	}
}

func counterValue(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	return reg.Snapshot().Counters[name]
}

func TestEngineFlowAffinity(t *testing.T) {
	dev, rs := testDevice(t, 50)
	e := New(Config{Workers: 4, Backend: NewLookupBackend(dev)})
	gen := NewGenerator(rs, GenConfig{Flows: 500, Seed: 2})
	for i := 0; i < 500; i++ {
		h := gen.Flow(i)
		w := e.workerFor(h)
		if w < 0 || w >= 4 {
			t.Fatalf("workerFor out of range: %d", w)
		}
		if again := e.workerFor(h); again != w {
			t.Fatalf("workerFor not stable: %d then %d", w, again)
		}
	}
}

// TestEngineDropAccounting overflows an unstarted engine's rings and
// checks rejection is counted, not blocking.
//
//catcam:allow ring "test goroutine is the single producer; the engine is never started"
func TestEngineDropAccounting(t *testing.T) {
	dev, rs := testDevice(t, 50)
	e := New(Config{Workers: 2, RingSize: 16, Backend: NewLookupBackend(dev)})
	gen := NewGenerator(rs, GenConfig{Flows: 1000, Seed: 4})
	hs := make([]rules.Header, 1024)
	gen.Fill(hs)
	accepted := e.DispatchBatch(hs)
	if accepted > 32 {
		t.Fatalf("accepted %d packets into 2x16 rings", accepted)
	}
	s := e.Snapshot()
	if s.Drops != uint64(len(hs)-accepted) {
		t.Fatalf("drops = %d, want %d", s.Drops, len(hs)-accepted)
	}
	var perWorker uint64
	for _, w := range s.Workers {
		perWorker += w.Drops
	}
	if perWorker != s.Drops {
		t.Fatalf("per-worker drops %d != total %d", perWorker, s.Drops)
	}
}

// TestFlowCacheInvalidationOnUpdate is the deterministic heart of the
// epoch scheme: change a rule, and the very next burst must see the
// new decision even though the old one is sitting in the cache.
func TestFlowCacheInvalidationOnUpdate(t *testing.T) {
	d := core.NewDevice(core.Config{Subtables: 8, SubtableCapacity: 8, KeyWidth: 160, FrequencyMHz: 500})
	r := rules.Rule{
		ID: 1, Priority: 5, Action: 100,
		SrcIP: rules.Prefix{Addr: 0x0A000000, Len: 8}, DstIP: rules.Prefix{Len: 0},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(), ProtoWildcard: true,
	}
	if _, err := d.InsertRule(r); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, FlowCacheSize: 64, Backend: NewLookupBackend(d)})
	h := rules.Header{SrcIP: 0x0A010203, SrcPort: 7, DstPort: 8, Proto: 6}
	burst := []rules.Header{h, h, h}

	res := e.ProcessSync(0, burst)
	if res[0].Action != 100 || !res[0].Matched {
		t.Fatalf("initial decision = %+v, want action 100", res[0])
	}
	// Same burst again: all hits now.
	e.ProcessSync(0, burst)
	if e.workers[0].hits.Value() == 0 {
		t.Fatal("second burst produced no cache hits")
	}

	// Replace the rule with a different action: one delete + one insert,
	// each advancing the epoch.
	if _, err := d.DeleteRule(1); err != nil {
		t.Fatal(err)
	}
	r.Action = 200
	if _, err := d.InsertRule(r); err != nil {
		t.Fatal(err)
	}
	res = e.ProcessSync(0, burst)
	if res[0].Action != 200 || !res[0].Matched {
		t.Fatalf("post-update decision = %+v, want action 200 (stale cache served?)", res[0])
	}

	// Delete outright: the cached positive verdict must give way to a
	// cached-able negative one.
	if _, err := d.DeleteRule(1); err != nil {
		t.Fatal(err)
	}
	res = e.ProcessSync(0, burst)
	if res[0].Matched {
		t.Fatalf("post-delete decision = %+v, want no match", res[0])
	}
}

// TestDifferentialCacheOnOffUnderChurn proves flow-cache-on and
// flow-cache-off make the same decisions while rules churn
// concurrently, with no burst skipped. The writer churns 20 rules
// (delete, then reinsert with a flipped action, so a stale cached
// decision is detectably wrong) and, after every update, records
// swclass.Linear's decision for every flow of the traffic's universe
// under the epoch it published. Each burst goes through both engines
// between two epoch reads, and every decision of either must be the
// reference at some epoch of that window: the same answer a direct
// lookup could have given. Once the churn quiesces, the two must agree
// exactly, and the cache must have hit for the equivalence to mean
// anything.
func TestDifferentialCacheOnOffUnderChurn(t *testing.T) {
	const churnRounds = 8
	dev, rs := testDevice(t, 200)
	backend := NewLookupBackend(dev)
	cached := New(Config{Workers: 1, FlowCacheSize: 2048, Backend: backend})
	direct := New(Config{Workers: 1, FlowCacheSize: 0, Backend: backend})
	gen := NewGenerator(rs, GenConfig{Flows: 128, ZipfS: 1.2, Seed: 13})
	flows := make([]rules.Header, gen.NumFlows())
	for k := range flows {
		flows[k] = gen.Flow(k)
	}
	ref := swclass.NewLinear()
	for _, r := range rs.Rules {
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	w := oracle.NewWindow(ref, flows, dev.Epoch(), 2*20*churnRounds+1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer w.Close()
		for flip := 0; flip < churnRounds; flip++ {
			for i := 0; i < 20; i++ {
				r := rs.Rules[i]
				if _, err := dev.DeleteRule(r.ID); err != nil {
					t.Errorf("churn delete %d: %v", r.ID, err)
					return
				}
				if err := w.Ref.Delete(r.ID); err != nil {
					t.Error(err)
					return
				}
				if err := w.Record(dev.Epoch()); err != nil {
					t.Error(err)
					return
				}
				r.Action += 1000 * (1 + flip%2)
				if _, err := dev.InsertRule(r); err != nil {
					t.Errorf("churn insert %d: %v", r.ID, err)
					return
				}
				if err := w.Ref.Insert(r); err != nil {
					t.Error(err)
					return
				}
				if err := w.Record(dev.Epoch()); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	burst := make([]rules.Header, 32)
	resA := make([]Result, 0, len(burst))
	bursts, raced := 0, 0
	for churning := true; churning; bursts++ {
		select {
		case <-done:
			churning = false // one more burst, after the last update
		default:
		}
		gen.Fill(burst)
		before := dev.Epoch()
		resA = append(resA[:0], cached.ProcessSync(0, burst)...)
		resB := direct.ProcessSync(0, burst)
		after := dev.Epoch()
		if after != before {
			raced++
		}
		for _, c := range []struct {
			name string
			res  []Result
		}{{"cached", resA}, {"direct", resB}} {
			if err := w.Check(burst, answers(c.res), before, after); err != nil {
				t.Fatalf("burst %d, %s: %v", bursts, c.name, err)
			}
		}
	}
	<-done
	if t.Failed() {
		return
	}

	// Quiesced: every decision must agree, and the cache must be doing
	// real work (hits > 0) for the equivalence to mean anything.
	for i := 0; i < 200; i++ {
		gen.Fill(burst)
		resA = append(resA[:0], cached.ProcessSync(0, burst)...)
		resB := direct.ProcessSync(0, burst)
		for j := range burst {
			if resA[j] != resB[j] {
				t.Fatalf("quiesced burst %d packet %d (%v): cached %+v, direct %+v",
					i, j, burst[j], resA[j], resB[j])
			}
		}
	}
	if cached.workers[0].hits.Value() == 0 {
		t.Fatal("cached engine never hit its cache")
	}
	t.Logf("%d bursts checked, %d raced an update", bursts, raced)
}

// TestEngineTraceSpans checks a sampled burst emits the ingress span
// on the ingress lane with the worker ID in the shard slot.
func TestEngineTraceSpans(t *testing.T) {
	dev, rs := testDevice(t, 50)
	tracer := tracepkg.NewTracer(16)
	tracer.SetSampleEvery(1)
	e := New(Config{Workers: 1, FlowCacheSize: 64, Backend: NewLookupBackend(dev), Tracer: tracer})
	gen := NewGenerator(rs, GenConfig{Flows: 100, Seed: 6})
	burst := make([]rules.Header, 8)
	gen.Fill(burst)
	e.ProcessSync(0, burst)

	traces := tracer.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no trace retained at sample-every=1")
	}
	found := false
	for _, tr := range traces {
		if tr.Kind != "ingress" {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Stage == tracepkg.StageIngress {
				found = true
				if sp.Shard != 0 {
					t.Errorf("ingress span shard = %d, want worker ID 0", sp.Shard)
				}
			}
		}
	}
	if !found {
		t.Fatal("no StageIngress span in retained traces")
	}
}

// TestCachedFastPathAllocFree is the hard 0-allocs guard on the cached
// burst path: once the cache is warm, processing a burst — cache scan,
// stats, telemetry — must not allocate at all, whether every entry hits
// at its own epoch or every one is revalidated across an epoch that
// changed a rule none of the flows match.
func TestCachedFastPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dev, rs := testDevice(t, 100)
	reg := telemetry.NewRegistry()
	e := New(Config{Workers: 1, FlowCacheSize: 4096, Backend: NewLookupBackend(dev)})
	e.AttachTelemetry(reg, nil)
	gen := NewGenerator(rs, GenConfig{Flows: 64, Seed: 8})
	burst := make([]rules.Header, 64)
	gen.Fill(burst)
	e.ProcessSync(0, burst) // warm: fill every flow at the current epoch

	if n := testing.AllocsPerRun(200, func() {
		e.ProcessSync(0, burst)
	}); n != 0 {
		t.Fatalf("warm cached burst allocates %v per run, want 0", n)
	}
	if e.workers[0].hits.Value() == 0 {
		t.Fatal("alloc guard measured a cold path")
	}

	// A rule no flow of the burst matches: every entry's stamp is now
	// one epoch old. Each run winds the stamps back, so every lookup
	// revalidates.
	stamp := dev.Epoch()
	aside := rules.Rule{ID: 1 << 20, Priority: 1 << 20, SrcIP: rules.Prefix{Addr: 0xFFFFFFFF, Len: 32},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(), ProtoWildcard: true}
	for _, h := range burst {
		if aside.Matches(h) {
			t.Fatalf("the aside rule matches %+v", h)
		}
	}
	if _, err := dev.InsertRule(aside); err != nil {
		t.Fatal(err)
	}
	c := e.workers[0].cache
	before := e.Snapshot()
	if n := testing.AllocsPerRun(200, func() {
		for i := range c.entries {
			c.entries[i].epoch = stamp
		}
		e.ProcessSync(0, burst)
	}); n != 0 {
		t.Fatalf("revalidating burst allocates %v per run, want 0", n)
	}
	if s := e.Snapshot(); s.CacheHits-before.CacheHits != 201*uint64(len(burst)) || s.StaleMisses != before.StaleMisses {
		t.Fatalf("%d hits and %d stale misses over 201 revalidating bursts of %d",
			s.CacheHits-before.CacheHits, s.StaleMisses-before.StaleMisses, len(burst))
	}
}

// TestRateSamplerOnlyWithGauge checks that Start launches the pps
// sampler only when AttachTelemetry registered the gauge it feeds: an
// uninstrumented engine runs its workers and nothing else.
func TestRateSamplerOnlyWithGauge(t *testing.T) {
	const start = "catcam/internal/ingress.(*Engine).Start"
	dev, _ := testDevice(t, 10)
	for _, attach := range []bool{false, true} {
		awaitRetired(t, start)
		e := New(Config{Workers: 2, RingSize: 64, Burst: 8, Backend: NewLookupBackend(dev)})
		if attach {
			e.AttachTelemetry(telemetry.NewRegistry(), nil)
		}
		e.Start()
		got := startedBy(start)
		e.Stop()
		want := e.Workers()
		if attach {
			want++
		}
		if got != want {
			t.Errorf("telemetry attached=%v: Start launched %d goroutines, want %d", attach, got, want)
		}
	}
}

// awaitRetired waits until no goroutine created by fn is listed. Stop
// returns once every goroutine Start launched has signalled its wait
// group, which a goroutine does as its last act; the scheduler retires
// it just after, so an earlier engine's goroutine can still be listed
// for a moment (long enough to show under the race detector). One that
// is still listed after 5 s was never stopped, and fails the test.
func awaitRetired(t *testing.T, fn string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := startedBy(fn); n != 0; n = startedBy(fn) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines created by %s still live 5 s after their engines stopped", n, fn)
		}
		time.Sleep(time.Millisecond)
	}
}

// startedBy counts the live goroutines whose creator is fn.
func startedBy(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by "+fn+" ")
}
