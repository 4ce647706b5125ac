// Package stateobs is CATCAM's state observatory: where the telemetry
// substrate watches *requests* (latencies, cycle costs, error rates),
// stateobs watches the *array itself*. It periodically — and on demand
// — derives per-subtable structural metrics from the published epoch
// snapshot (occupancy, priority-interval density and a fragmentation
// index, care-bit/wildcard density, eviction pressure, P-matrix write
// pressure) plus the epoch-churn accounting the publication scheme
// keeps (publish counts, COW rebuild vs. pointer-share ratios,
// scratch-pool hit rates), records every observation into a bounded
// time-series ring so the last N minutes of structure can be replayed
// as a heatmap, and runs a linear capacity forecaster whose
// time-to-fill / time-to-stall projection feeds the "capacity
// headroom" SLO objective.
//
// The derivation pass is lock-free by construction: it consumes
// core.Device.DeriveStructure, which loads the published snapshot with
// one atomic pointer read and traverses frozen views — never the
// device mutex — so sweeping at any rate costs classify and update
// traffic nothing, and the classify path itself stays zero-allocation
// with the observatory attached.
package stateobs

import (
	"sync"
	"sync/atomic"
	"time"

	"catcam/internal/core"
	"catcam/internal/telemetry"
)

// Source is what the observatory samples: a device, a cluster, or a
// flowtable pipeline — anything that can derive its structural state
// lock-free and notify observers when its statistics reset.
type Source interface {
	// DeriveStructure derives the current structural state into dst
	// (reusing its slices) and returns it. Must not block on update
	// traffic.
	DeriveStructure(dst *core.Structure) *core.Structure
	// OnStatsReset registers fn to run whenever the source's statistics
	// are reset, so derived state does not survive a reset.
	OnStatsReset(fn func())
}

// positionProfiler is the optional Source refinement for the per-plane
// care profile exported by the /debug/state handler.
type positionProfiler interface {
	CarePerPosition(dst []uint64) []uint64
}

// Config parameterizes an Observatory. Zero values take the defaults.
type Config struct {
	// RingFrames bounds the time-series ring (default 360 — 30 minutes
	// of history at the default 5s sweep interval).
	RingFrames int
	// Horizon is the capacity-headroom horizon: the forecaster reports
	// unhealthy headroom when projected time-to-fill or time-to-stall
	// falls inside it (default 10m).
	Horizon time.Duration
}

// The forecaster's limits.
const (
	// fillLimit is the occupancy treated as full.
	fillLimit = 1.0
	// fragStall is the fragmentation index treated as an insert stall:
	// with interval-weighted expected occupancy that high, essentially
	// every insert lands in a full subtable and must evict or spend a
	// fresh subtable.
	fragStall = 0.99
)

func (c Config) withDefaults() Config {
	if c.RingFrames <= 0 {
		c.RingFrames = 360
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * time.Minute
	}
	return c
}

// Frame is one recorded observation: the scalar structure of the
// source at one sweep, plus the per-subtable fill row the heatmap
// replays. Counter fields are cumulative at frame time; consumers
// difference consecutive frames for rates.
type Frame struct {
	At          time.Time
	Epoch       uint64
	Entries     int
	Active      int
	Full        int
	MaxFullRun  int
	Occupancy   float64
	FragIndex   float64
	CareDensity float64

	Churn                           core.StructuralChurn
	Inserts, Deletes, Reallocations uint64

	// Fill holds entries per subtable, indexed by SubtableStructure
	// .Index (dense across shards after cluster aggregation). The slice
	// is owned by the ring slot and reused on overwrite.
	Fill []uint16
}

// obsTelemetry holds the catcam_state_* metric instances. Gauges are
// republished every sweep; the two histograms are instantaneous
// distributions across subtables, reset and refilled per sweep (they
// describe the latest sweep, not history — history lives in the ring).
type obsTelemetry struct {
	epoch          *telemetry.Gauge
	entries        *telemetry.Gauge
	capacity       *telemetry.Gauge
	active         *telemetry.Gauge
	free           *telemetry.Gauge
	full           *telemetry.Gauge
	maxFullRun     *telemetry.Gauge
	occupancyPPM   *telemetry.Gauge
	fragPPM        *telemetry.Gauge
	carePPM        *telemetry.Gauge
	publishes      *telemetry.Gauge
	viewsRebuilt   *telemetry.Gauge
	viewsShared    *telemetry.Gauge
	globalRebuilds *telemetry.Gauge
	scratchAllocs  *telemetry.Gauge
	scratchBatches *telemetry.Gauge
	scratchHitPPM  *telemetry.Gauge
	matchRowW      *telemetry.Gauge
	prioRowW       *telemetry.Gauge
	prioColW       *telemetry.Gauge
	globalRowW     *telemetry.Gauge
	globalColW     *telemetry.Gauge
	ttfSeconds     *telemetry.Gauge
	ttsSeconds     *telemetry.Gauge
	headroomOK     *telemetry.Gauge
	fillPct        *telemetry.Histogram
	densityPermil  *telemetry.Histogram
}

// fillPctBuckets bucket the per-subtable fill percentage distribution.
var fillPctBuckets = []uint64{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100}

// densityBuckets bucket per-subtable interval density in entries per
// thousand priority units (a wide log scale: sparse intervals land in
// the low buckets, saturated narrow intervals in the high ones).
var densityBuckets = []uint64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 100000}

// Observatory samples a Source into a bounded frame ring, mirrors the
// latest structure into catcam_state_* metrics, and forecasts capacity
// headroom. All methods are safe for concurrent use.
type Observatory struct {
	src Source
	cfg Config

	mu       sync.Mutex
	cur      *core.Structure //catcam:guarded-by mu
	ring     []Frame         //catcam:guarded-by mu
	head     int             //catcam:guarded-by mu
	count    int             //catcam:guarded-by mu
	forecast Forecast        //catcam:guarded-by mu
	tel      *obsTelemetry   //catcam:guarded-by mu

	// Headroom SLO counters: one check per sweep, bad when the
	// forecaster reports unhealthy headroom. Atomic so the SLO engine's
	// sampler and the registry's export read them without the
	// observatory lock.
	hdrChecks atomic.Uint64
	hdrBad    atomic.Uint64
}

// New builds an observatory over src and registers its Reset with the
// source, so a ResetStats on the device/cluster clears the ring and
// the structural gauges in the same breath.
func New(src Source, cfg Config) *Observatory {
	o := &Observatory{
		src: src,
		cfg: cfg.withDefaults(),
		cur: &core.Structure{},
	}
	o.ring = make([]Frame, o.cfg.RingFrames)
	src.OnStatsReset(o.Reset)
	return o
}

// Config returns the effective (defaulted) configuration.
func (o *Observatory) Config() Config { return o.cfg }

// AttachTelemetry registers the catcam_state_* metric families on reg
// and mirrors every subsequent sweep into them. Attaching replaces any
// previous attachment; a nil registry detaches.
func (o *Observatory) AttachTelemetry(reg *telemetry.Registry, labels telemetry.Labels) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if reg == nil {
		o.tel = nil
		return
	}
	o.tel = &obsTelemetry{
		epoch:          reg.Gauge("catcam_state_epoch", "published epoch at the last structural sweep", labels),
		entries:        reg.Gauge("catcam_state_entries", "stored entries at the last structural sweep", labels),
		capacity:       reg.Gauge("catcam_state_capacity_entries", "total entry slots", labels),
		active:         reg.Gauge("catcam_state_active_subtables", "active subtables at the last sweep", labels),
		free:           reg.Gauge("catcam_state_free_subtables", "unassigned subtables at the last sweep", labels),
		full:           reg.Gauge("catcam_state_full_subtables", "completely full subtables at the last sweep", labels),
		maxFullRun:     reg.Gauge("catcam_state_max_full_run", "longest run of consecutive full subtables in interval order (eviction-chain pressure)", labels),
		occupancyPPM:   reg.Gauge("catcam_state_occupancy_ppm", "entries/capacity in parts per million", labels),
		fragPPM:        reg.Gauge("catcam_state_fragmentation_ppm", "interval-weighted expected occupancy (fragmentation index) in parts per million", labels),
		carePPM:        reg.Gauge("catcam_state_care_density_ppm", "cared ternary positions over valid entries in parts per million (complement: wildcard density)", labels),
		publishes:      reg.Gauge("catcam_state_publishes", "cumulative epoch publications", labels),
		viewsRebuilt:   reg.Gauge("catcam_state_views_rebuilt", "cumulative subtable views re-materialized by publication (dirty COW copies)", labels),
		viewsShared:    reg.Gauge("catcam_state_views_shared", "cumulative subtable views pointer-shared across epochs (clean COW hits)", labels),
		globalRebuilds: reg.Gauge("catcam_state_global_rebuilds", "cumulative global-matrix view copies", labels),
		scratchAllocs:  reg.Gauge("catcam_state_scratch_allocs", "cumulative cold read-scratch allocations (pool misses)", labels),
		scratchBatches: reg.Gauge("catcam_state_scratch_batches", "cumulative read-scratch checkouts (one per lookup batch)", labels),
		scratchHitPPM:  reg.Gauge("catcam_state_scratch_hit_ppm", "read-scratch pool hit rate in parts per million", labels),
		matchRowW:      reg.Gauge("catcam_state_match_row_writes", "cumulative match-matrix row writes stamped on the published epoch", labels),
		prioRowW:       reg.Gauge("catcam_state_prio_row_writes", "cumulative local priority-matrix row writes stamped on the published epoch", labels),
		prioColW:       reg.Gauge("catcam_state_prio_col_writes", "cumulative local priority-matrix column writes stamped on the published epoch", labels),
		globalRowW:     reg.Gauge("catcam_state_global_row_writes", "cumulative global priority-matrix row writes stamped on the published epoch", labels),
		globalColW:     reg.Gauge("catcam_state_global_col_writes", "cumulative global priority-matrix column writes stamped on the published epoch", labels),
		ttfSeconds:     reg.Gauge("catcam_state_time_to_fill_seconds", "forecast seconds until occupancy reaches the fill limit (-1: no filling trend)", labels),
		ttsSeconds:     reg.Gauge("catcam_state_time_to_stall_seconds", "forecast seconds until the fragmentation index reaches the stall threshold (-1: no trend)", labels),
		headroomOK:     reg.Gauge("catcam_state_headroom_ok", "1 when the capacity forecaster reports healthy headroom over the horizon", labels),
	}
	reg.CounterFunc("catcam_state_headroom_checks_total", "capacity-headroom forecaster evaluations (one per sweep)", labels, o.hdrChecks.Load)
	reg.CounterFunc("catcam_state_headroom_bad_total", "sweeps whose capacity-headroom forecast was unhealthy (the capacity SLO's bad-event counter)", labels, o.hdrBad.Load)
	o.tel.fillPct = reg.Histogram("catcam_state_subtable_fill_pct",
		"per-subtable fill percentage distribution at the last sweep (reset and refilled per sweep)",
		fillPctBuckets, labels)
	o.tel.densityPermil = reg.Histogram("catcam_state_interval_density_permille",
		"per-subtable priority-interval density (entries per 1000 priority units) at the last sweep (reset and refilled per sweep)",
		densityBuckets, labels)
}

// Sweep derives the source's structural state, records a frame, and
// refreshes the forecast, the headroom SLO counters and the attached
// catcam_state_* metrics. now is injected so tests replay hours of
// history in microseconds; Run passes the wall clock. Allocation-free
// at steady state — the derive buffer, ring slots and metric
// instances are all reused.
func (o *Observatory) Sweep(now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.src.DeriveStructure(o.cur)
	o.cur = s

	// Record the frame into the ring slot, reusing its fill row.
	fr := &o.ring[o.head]
	fr.At = now
	fr.Epoch = s.Epoch
	fr.Entries = s.Entries
	fr.Active = s.ActiveSubtables
	fr.Full = s.FullSubtables
	fr.MaxFullRun = s.MaxFullRun
	fr.Occupancy = s.Occupancy
	fr.FragIndex = s.FragIndex
	fr.CareDensity = s.CareDensity
	fr.Churn = s.Churn
	fr.Inserts = s.Ops.Inserts
	fr.Deletes = s.Ops.Deletes
	fr.Reallocations = s.Ops.Reallocations
	fr.Fill = fr.Fill[:0]
	for i := 0; i < s.TotalSubtables; i++ {
		fr.Fill = append(fr.Fill, 0) //catcam:allow alloc "ring-slot fill row growth on the first lap; steady state reuses capacity"
	}
	for _, sub := range s.Subtables {
		if sub.Index >= 0 && sub.Index < len(fr.Fill) {
			fr.Fill[sub.Index] = uint16(sub.Entries)
		}
	}
	o.head = (o.head + 1) % len(o.ring)
	if o.count < len(o.ring) {
		o.count++
	}

	o.forecast = o.forecastLocked()
	o.hdrChecks.Add(1)
	if !o.forecast.HeadroomOK {
		o.hdrBad.Add(1)
	}
	o.publishLocked(s)
}

// publishLocked mirrors the freshly derived structure and forecast
// into the attached metrics. Caller holds o.mu.
func (o *Observatory) publishLocked(s *core.Structure) {
	t := o.tel
	if t == nil {
		return
	}
	t.epoch.Set(int64(s.Epoch))
	t.entries.Set(int64(s.Entries))
	t.capacity.Set(int64(s.Capacity))
	t.active.Set(int64(s.ActiveSubtables))
	t.free.Set(int64(s.FreeSubtables))
	t.full.Set(int64(s.FullSubtables))
	t.maxFullRun.Set(int64(s.MaxFullRun))
	t.occupancyPPM.Set(ppm(s.Occupancy))
	t.fragPPM.Set(ppm(s.FragIndex))
	t.carePPM.Set(ppm(s.CareDensity))
	t.publishes.Set(int64(s.Churn.Publishes))
	t.viewsRebuilt.Set(int64(s.Churn.ViewsRebuilt))
	t.viewsShared.Set(int64(s.Churn.ViewsShared))
	t.globalRebuilds.Set(int64(s.Churn.GlobalRebuilds))
	t.scratchAllocs.Set(int64(s.Churn.ScratchAllocs))
	t.scratchBatches.Set(int64(s.Churn.ScratchBatches))
	if s.Churn.ScratchBatches > 0 {
		hit := 1 - float64(s.Churn.ScratchAllocs)/float64(s.Churn.ScratchBatches)
		if hit < 0 {
			hit = 0
		}
		t.scratchHitPPM.Set(ppm(hit))
	} else {
		t.scratchHitPPM.Set(0)
	}
	t.matchRowW.Set(int64(s.MatchRowWrites))
	t.prioRowW.Set(int64(s.PrioRowWrites))
	t.prioColW.Set(int64(s.PrioColWrites))
	t.globalRowW.Set(int64(s.GlobalRowWrites))
	t.globalColW.Set(int64(s.GlobalColWrites))
	t.ttfSeconds.Set(secondsGauge(o.forecast.TimeToFillSeconds))
	t.ttsSeconds.Set(secondsGauge(o.forecast.TimeToStallSeconds))
	if o.forecast.HeadroomOK {
		t.headroomOK.Set(1)
	} else {
		t.headroomOK.Set(0)
	}

	t.fillPct.Reset()
	t.densityPermil.Reset()
	for _, sub := range s.Subtables {
		if sub.Capacity > 0 {
			t.fillPct.Observe(uint64(sub.Entries * 100 / sub.Capacity))
		}
		t.densityPermil.Observe(uint64(sub.Density * 1000))
	}
}

// ppm converts a [0,1] ratio to integer parts per million.
func ppm(r float64) int64 {
	if r < 0 {
		return 0
	}
	return int64(r * 1e6)
}

// secondsGauge maps a forecast horizon to a gauge value (-1: none).
func secondsGauge(s float64) int64 {
	if s < 0 {
		return -1
	}
	return int64(s)
}

// Run sweeps on a wall-clock ticker until stop closes. The first sweep
// fires immediately so short-lived processes still record structure.
func (o *Observatory) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	o.Sweep(time.Now())
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			o.Sweep(now)
		}
	}
}

// HeadroomSource adapts the observatory to an slo.Objective source:
// cumulative (bad, total) headroom checks. Wire it as the "capacity
// headroom" objective so sustained unhealthy forecasts burn error
// budget through the standard multi-window machinery and trigger the
// existing escalation path.
func (o *Observatory) HeadroomSource() func() (bad, total uint64) {
	return func() (uint64, uint64) {
		return o.hdrBad.Load(), o.hdrChecks.Load()
	}
}

// Forecast returns the forecast computed by the most recent sweep.
func (o *Observatory) Forecast() Forecast {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.forecast
}

// frames copies the recorded frames, oldest first, deep-copying the
// fill rows: the ring reuses its slots in place, so shared rows would
// be overwritten under a caller still reading them. Caller holds o.mu.
func (o *Observatory) frames() []Frame {
	out := make([]Frame, 0, o.count)
	for i := 0; i < o.count; i++ {
		fr := o.ring[(o.head-o.count+i+len(o.ring))%len(o.ring)]
		fr.Fill = append([]uint16(nil), fr.Fill...)
		out = append(out, fr)
	}
	return out
}

// FrameCount returns the number of recorded frames.
func (o *Observatory) FrameCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.count
}

// Reset clears the frame ring, the forecast, the headroom counters and
// the attached structural metrics — registered with the source so
// ResetStats/ResetArrayStats leave no stale structure behind. The ring
// slots keep their fill-row capacity (reset is about data, not warmed
// buffers).
func (o *Observatory) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range o.ring {
		fill := o.ring[i].Fill
		o.ring[i] = Frame{Fill: fill[:0]}
	}
	o.head, o.count = 0, 0
	o.forecast = Forecast{HeadroomOK: true}
	o.hdrChecks.Store(0)
	o.hdrBad.Store(0)
	if t := o.tel; t != nil {
		t.epoch.Set(0)
		t.entries.Set(0)
		t.capacity.Set(0)
		t.active.Set(0)
		t.free.Set(0)
		t.full.Set(0)
		t.maxFullRun.Set(0)
		t.occupancyPPM.Set(0)
		t.fragPPM.Set(0)
		t.carePPM.Set(0)
		t.publishes.Set(0)
		t.viewsRebuilt.Set(0)
		t.viewsShared.Set(0)
		t.globalRebuilds.Set(0)
		t.scratchAllocs.Set(0)
		t.scratchBatches.Set(0)
		t.scratchHitPPM.Set(0)
		t.matchRowW.Set(0)
		t.prioRowW.Set(0)
		t.prioColW.Set(0)
		t.globalRowW.Set(0)
		t.globalColW.Set(0)
		t.ttfSeconds.Set(-1)
		t.ttsSeconds.Set(-1)
		t.headroomOK.Set(1)
		t.fillPct.Reset()
		t.densityPermil.Reset()
	}
}
