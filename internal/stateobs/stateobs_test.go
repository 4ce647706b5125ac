package stateobs_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/rules"
	"catcam/internal/slo"
	"catcam/internal/stateobs"
	"catcam/internal/telemetry"
)

func smallConfig() core.Config {
	return core.Config{Subtables: 8, SubtableCapacity: 8, KeyWidth: 160, FrequencyMHz: 500}
}

func mkRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio, Action: id * 10,
		SrcIP: src, DstIP: rules.Prefix{Len: 0},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func seedDevice(t *testing.T, d *core.Device, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := d.InsertRule(mkRule(i+1, i+1, rules.Prefix{Addr: uint32(i) << 8, Len: 24})); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSweepRingAndReport(t *testing.T) {
	d := core.NewDevice(smallConfig())
	seedDevice(t, d, 20)
	obs := stateobs.New(d, stateobs.Config{RingFrames: 4})

	t0 := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		obs.Sweep(t0.Add(time.Duration(i) * time.Second))
	}
	if obs.FrameCount() != 4 {
		t.Fatalf("ring holds %d frames, want cap 4", obs.FrameCount())
	}

	r := obs.Report(t0.Add(6 * time.Second))
	h := r.Heatmap
	if len(h.TimesUnixMs) != 4 || len(h.Epochs) != 4 || len(h.Occupancy) != 4 || len(h.Fill) != 4 {
		t.Fatalf("heatmap series misaligned: %d %d %d %d", len(h.TimesUnixMs), len(h.Epochs), len(h.Occupancy), len(h.Fill))
	}
	if len(h.PublishRate) != 3 || len(h.InsertRate) != 3 {
		t.Fatalf("rate series length %d/%d, want frames-1", len(h.PublishRate), len(h.InsertRate))
	}
	// Oldest surviving frame is sweep #2 (t0+2s): the ring dropped the
	// first two.
	if h.TimesUnixMs[0] != t0.Add(2*time.Second).UnixMilli() {
		t.Fatalf("oldest frame at %d, want %d", h.TimesUnixMs[0], t0.Add(2*time.Second).UnixMilli())
	}
	if h.Subtables != 8 {
		t.Fatalf("heatmap width %d, want 8", h.Subtables)
	}
	for i, row := range h.Fill {
		if len(row) != 8 {
			t.Fatalf("fill row %d width %d", i, len(row))
		}
		sum := 0
		for _, v := range row {
			sum += int(v)
		}
		if sum != r.Current.Entries {
			t.Fatalf("fill row %d sums to %d, entries %d", i, sum, r.Current.Entries)
		}
	}
	if r.Current == nil || r.Current.Entries != 20 {
		t.Fatalf("current structure wrong: %+v", r.Current)
	}
	if len(r.CarePerPosition) != 160 {
		t.Fatalf("care profile width %d, want 160", len(r.CarePerPosition))
	}
	if r.HeadroomChecks != 6 {
		t.Fatalf("headroom checks %d, want 6", r.HeadroomChecks)
	}
}

func TestTelemetryMirrorsAndResetHook(t *testing.T) {
	d := core.NewDevice(smallConfig())
	seedDevice(t, d, 20)
	reg := telemetry.NewRegistry()
	obs := stateobs.New(d, stateobs.Config{RingFrames: 8})
	obs.AttachTelemetry(reg, nil)

	t0 := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		obs.Sweep(t0.Add(time.Duration(i) * time.Second))
	}
	gauge := func(name string) int64 { return reg.Gauge(name, "", nil).Value() }
	if gauge("catcam_state_entries") != 20 {
		t.Fatalf("catcam_state_entries = %d, want 20", gauge("catcam_state_entries"))
	}
	if gauge("catcam_state_capacity_entries") != 64 || gauge("catcam_state_epoch") == 0 {
		t.Fatal("capacity/epoch gauges not mirrored")
	}
	if gauge("catcam_state_publishes") == 0 || gauge("catcam_state_occupancy_ppm") == 0 {
		t.Fatal("churn/occupancy gauges not mirrored")
	}
	if got := reg.Histogram("catcam_state_subtable_fill_pct", "", nil, nil).Count(); got == 0 {
		t.Fatal("fill histogram empty after sweep")
	}

	// Satellite: a device-side stats reset must clear the observatory —
	// ring, forecast, headroom counters and every structural gauge — via
	// the OnStatsReset hook New registered.
	d.ResetStats()
	if obs.FrameCount() != 0 {
		t.Fatalf("ring survives ResetStats: %d frames", obs.FrameCount())
	}
	for _, name := range []string{
		"catcam_state_entries", "catcam_state_epoch", "catcam_state_publishes",
		"catcam_state_occupancy_ppm", "catcam_state_fragmentation_ppm",
		"catcam_state_match_row_writes", "catcam_state_headroom_checks_total",
	} {
		var v int64
		if name == "catcam_state_headroom_checks_total" {
			v = int64(reg.Snapshot().Counters[name])
		} else {
			v = gauge(name)
		}
		if v != 0 {
			t.Fatalf("stale %s = %d after ResetStats", name, v)
		}
	}
	if f := obs.Forecast(); !f.HeadroomOK || f.Frames != 0 {
		t.Fatalf("forecast survives reset: %+v", f)
	}

	// And the next sweep repopulates from live (non-stale) state.
	obs.Sweep(t0.Add(time.Minute))
	if gauge("catcam_state_entries") != 20 || obs.FrameCount() != 1 {
		t.Fatal("observatory did not resume after reset")
	}
}

// TestForecastRaisesCapacityBurnBeforeFull is the fill-toward-failure
// acceptance test: steady inserts drive occupancy up; the forecaster
// must project time-to-fill inside the horizon and burn the capacity
// SLO objective before the device ever refuses an insert.
func TestForecastRaisesCapacityBurnBeforeFull(t *testing.T) {
	d := core.NewDevice(smallConfig()) // 64 slots
	obs := stateobs.New(d, stateobs.Config{RingFrames: 16, Horizon: 30 * time.Second})
	eng := slo.New(slo.Config{})
	eng.Add(slo.Objective{
		Name:   "capacity_headroom",
		Target: 0.999,
		Source: obs.HeadroomSource(),
	})

	t0 := time.Unix(1000, 0)
	burnAt, fullAt := -1, -1
	for i := 0; fullAt < 0 && i < 200; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		// One insert per second: fill rate 1 entry/s against 64 slots.
		if _, err := d.InsertRule(mkRule(i+1, i+1, rules.Prefix{Addr: uint32(i) << 8, Len: 24})); err != nil {
			if !errors.Is(err, core.ErrFull) {
				t.Fatal(err)
			}
			fullAt = i
		}
		obs.Sweep(now)
		eng.Sample(now)
		st := eng.Evaluate(now)
		if burnAt < 0 && !st.Healthy {
			burnAt = i
		}
	}
	if fullAt < 0 {
		t.Fatal("device never filled")
	}
	if burnAt < 0 {
		t.Fatal("capacity objective never burned despite fill-toward-failure")
	}
	if burnAt >= fullAt {
		t.Fatalf("capacity burn at t=%ds, after insert failure at t=%ds — no actionable warning", burnAt, fullAt)
	}
	f := obs.Forecast()
	if f.HeadroomOK || f.Reason == "" {
		t.Fatalf("forecast healthy at saturation: %+v", f)
	}
	if f.TimeToFillSeconds != 0 {
		t.Fatalf("time-to-fill %v at saturation, want 0 (already there)", f.TimeToFillSeconds)
	}
	t.Logf("burn raised at t=%ds, device full at t=%ds (lead %ds)", burnAt, fullAt, fullAt-burnAt)
}

// TestForecastFlatIsHealthy: a steady table (no growth trend) must
// report healthy headroom with no projected fill time.
func TestForecastFlatIsHealthy(t *testing.T) {
	d := core.NewDevice(smallConfig())
	seedDevice(t, d, 20)
	obs := stateobs.New(d, stateobs.Config{RingFrames: 16, Horizon: time.Hour})
	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		obs.Sweep(t0.Add(time.Duration(i) * time.Second))
	}
	f := obs.Forecast()
	if !f.Valid || !f.HeadroomOK {
		t.Fatalf("flat occupancy judged unhealthy: %+v", f)
	}
	if f.TimeToFillSeconds != -1 || f.TimeToStallSeconds != -1 {
		t.Fatalf("flat occupancy projects a fill: %+v", f)
	}
	bad, total := obs.HeadroomSource()()
	if bad != 0 || total != 10 {
		t.Fatalf("headroom counters %d/%d, want 0/10", bad, total)
	}
}

// TestSweepSteadyStateAllocs proves the observatory's sampling loop is
// allocation-free once the ring is warm, telemetry attached and all,
// whether it samples one device or a composite that merges its parts:
// a 2-shard cluster, and a pipeline whose one table is sharded.
func TestSweepSteadyStateAllocs(t *testing.T) {
	// spread's priorities straddle the default 2-shard bound, so both
	// shards of a composite hold rules.
	spread := func(i int) rules.Rule {
		return mkRule(i+1, 1+i*3000, rules.Prefix{Addr: uint32(i) << 8, Len: 24})
	}
	sources := []struct {
		name string
		src  func(t *testing.T) stateobs.Source
	}{
		{"device", func(t *testing.T) stateobs.Source {
			d := core.NewDevice(smallConfig())
			seedDevice(t, d, 20)
			return d
		}},
		{"cluster", func(t *testing.T) stateobs.Source {
			c := cluster.New(cluster.Config{Shards: 2, Device: smallConfig()})
			for i := 0; i < 20; i++ {
				if _, err := c.InsertRule(spread(i)); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}},
		{"pipeline", func(t *testing.T) stateobs.Source {
			p, err := flowtable.NewPipeline([]flowtable.TableConfig{
				{ID: 0, Device: smallConfig(), Shards: 2, Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				r := spread(i)
				if _, err := p.Install(0, flowtable.FlowRule{Rule: r, Instruction: flowtable.Terminal(r.Action)}); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}},
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			obs := stateobs.New(tc.src(t), stateobs.Config{RingFrames: 4})
			obs.AttachTelemetry(reg, nil)
			t0 := time.Unix(1000, 0)
			for i := 0; i < 4; i++ { // warm every ring slot's fill row
				obs.Sweep(t0.Add(time.Duration(i) * time.Second))
			}
			i := 0
			if n := testing.AllocsPerRun(100, func() {
				i++
				obs.Sweep(t0.Add(time.Duration(4+i) * time.Second))
			}); n != 0 {
				t.Fatalf("Sweep allocates %v/op at steady state", n)
			}
		})
	}
}

// TestConcurrentSweepsAndPublishes races sweeps, reports and telemetry
// reads against seeded update churn: every observation must be
// internally consistent (frozen-epoch derivation) and the run must be
// clean under -race.
func TestConcurrentSweepsAndPublishes(t *testing.T) {
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160, FrequencyMHz: 500})
	reg := telemetry.NewRegistry()
	d.AttachTelemetry(reg, nil, nil)
	obs := stateobs.New(d, stateobs.Config{RingFrames: 32})
	obs.AttachTelemetry(reg, nil)
	seedDevice(t, d, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // seeded churn writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		id := 1000
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := mkRule(id, 1+rng.Intn(4096), rules.Prefix{Addr: rng.Uint32(), Len: 24})
			if _, err := d.InsertRule(r); err == nil {
				id++
			}
			if id%3 == 0 {
				_, _ = d.DeleteRule(id - 1 - rng.Intn(4))
			}
		}
	}()
	wg.Add(1)
	go func() { // telemetry reader: snapshot the registry like /metrics.json
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()
	wg.Add(1)
	go func() { // report reader, like a /debug/state poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := obs.Report(time.Now())
			if r.Current == nil {
				continue
			}
			sum := 0
			for _, sub := range r.Current.Subtables {
				sum += sub.Entries
			}
			if sum != r.Current.Entries {
				t.Errorf("torn report: subtable sum %d != entries %d", sum, r.Current.Entries)
				return
			}
		}
	}()

	t0 := time.Unix(1000, 0)
	for i := 0; i < 500; i++ {
		obs.Sweep(t0.Add(time.Duration(i) * time.Millisecond))
	}
	close(stop)
	wg.Wait()
	if obs.FrameCount() != 32 {
		t.Fatalf("ring holds %d frames after 500 sweeps, want 32", obs.FrameCount())
	}
}

func TestHandlerServesReport(t *testing.T) {
	d := core.NewDevice(smallConfig())
	seedDevice(t, d, 12)
	obs := stateobs.New(d, stateobs.Config{RingFrames: 8})

	// A plain GET sweeps first, so even a fresh observatory reports the
	// current structure.
	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/state", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var r stateobs.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Current == nil || r.Current.Entries != 12 || len(r.Heatmap.Fill) != 1 {
		t.Fatalf("report wrong: %+v", r.Current)
	}

	// ?sweep=0 reads without recording another frame.
	before := obs.FrameCount()
	rec = httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/state?sweep=0", nil))
	if obs.FrameCount() != before {
		t.Fatalf("sweep=0 recorded a frame: %d -> %d", before, obs.FrameCount())
	}
}
