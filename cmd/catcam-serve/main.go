// Command catcam-serve runs a CATCAM engine under a continuous
// ClassBench churn workload and exposes its runtime telemetry over
// HTTP — the long-lived serving mode of the simulator, shaped like a
// real SDN switch agent's admin plane.
//
// The engine is a single device by default; -shards N (N >= 2) runs a
// sharded cluster instead — N devices, each owning one interval of the
// priority range, behind the global shard arbiter, with -rebalance
// enabling the background migrator. Cluster shards export their device
// series with a {shard="<i>"} label on the same registry.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                catcam_update_cycles histograms with p50/p99/p999)
//	/metrics.json   JSON snapshot of the same registry, with per-bucket
//	                trace-ID exemplars on the serve latency histogram
//	/events         recent structured update events (?kind= ?n= filters)
//	/healthz        liveness plus occupancy, audit summary, SLO verdict
//	                and (in cluster mode) per-shard entries, bounds and
//	                rebalancer accounting
//	/slo            SLO burn-rate status (objectives, fast/slow burn,
//	                paging verdict), evaluated at request time
//	/debug/trace    sampled causal update traces (?op= ?n= filters)
//	/debug/timeline sampled request span trees as Chrome trace-event
//	                JSON — load directly in Perfetto (?trace=<hex id>)
//	/debug/blame    tail-latency attribution: the slowest traces
//	                decomposed by stage and shard/subtable self-time
//	/debug/state    state observatory: per-subtable structural metrics
//	                (occupancy, fragmentation index, care density,
//	                eviction pressure, write pressure), epoch-churn
//	                accounting, the capacity forecast, and the ring
//	                replayed as a subtable × time heatmap
//	/debug/audit    invariant auditor report (checks, violations, sweeps)
//	/debug/vars     expvar (includes the telemetry snapshot)
//	/debug/pprof/   net/http/pprof profiles
//
// Usage:
//
//	catcam-serve [-addr :9090] [-family ACL] [-size 1000] [-rate 10000]
//	             [-subtables 256] [-slots 256] [-seed 1]
//	             [-shards 1] [-rebalance 0]
//	             [-classify-workers 0] [-trace-every 0] [-audit-every 0]
//	             [-audit-interval 0] [-shadow-every 0] [-duration 0]
//	             [-span-every 0] [-slo-interval 5s]
//	             [-slo-latency-ns 1048576] [-state-interval 5s]
//	             [-state-horizon 10m] [-ingress] [-workers 4]
//	             [-flowcache-size 65536] [-zipf-s 1.2]
//	             [-ingress-flows 1000000] [-ingress-rate 0]
//	             [-final-dir ""]
//
// The churn loop mirrors the paper's update methodology: inserts and
// deletes split evenly so the table stays near its provisioned
// occupancy, reinsertions draw fresh priorities (policy churn), and
// one lookup is issued per update. -rate throttles updates per second
// (0 means unthrottled).
//
// -classify-workers N adds N free-running classify goroutines that
// replay the packet trace concurrently with the churn loop — readers
// racing the writer through the lock-free epoch-snapshot path. In
// cluster mode each reader walks every shard itself, so N readers are
// also N concurrent cluster rounds. /healthz reports
// the device's current snapshot epoch (per shard in cluster mode), a
// live view of publication progress.
//
// The flight-recorder flags turn on the observability layer:
// -trace-every N samples every Nth update into the /debug/trace ring;
// -audit-every N audits every Nth lookup's report vector and winner;
// -audit-interval D runs a background invariant sweep every D;
// -shadow-every N re-classifies every Nth lookup through the software
// reference classifier. All default to off and cost nothing when off.
// -duration D runs the churn for D, then performs a final sweep and
// exits — nonzero if any invariant violation was detected. That is the
// CI soak mode.
//
// The span layer rides on top: -span-every N samples every Nth classify
// batch into a full end-to-end span trace (cluster shard walk, per-shard
// kernels, per-key device lookups, focus-key SRAM kernel searches,
// arbiter merge) retained in a ring of 256 traces, served at
// /debug/timeline and /debug/blame, and linked from the
// catcam_serve_lookup_ns histogram's bucket exemplars. The SLO engine
// evaluates three objectives every -slo-interval — batch latency under
// -slo-latency-ns, audit-violation rate, shadow-divergence rate — over
// fast (5m) and slow (1h) burn windows. When both windows burn, the
// escalation raises every sampling knob (span traces, causal traces,
// inline audits, shadows) to 1-in-1 and captures a CPU profile for
// 30 s, then restores the configured rates. -final-dir D
// writes metrics.json, slo.json, timeline.json and state.json there at
// shutdown for CI artifact upload.
//
// -ingress runs the streaming packet front end (internal/ingress) on
// top of the same engine: a Zipf traffic generator over the churned
// ruleset (-ingress-flows distinct 5-tuples, -zipf-s skew,
// -ingress-rate packets/s, 0 = unthrottled) dispatched by flow hash
// into -workers run-to-completion workers, each draining a bounded SPSC
// ring through a private -flowcache-size exact-match flow cache and
// batching only the misses into the lock-free classify path. Cached
// decisions are validated against the engine's publication epoch every
// burst, so the concurrent churn loop continuously invalidates them —
// the wire-rate counterpart of the update/lookup separation the rest of
// the process exercises. Ingress exports catcam_ingress_* metrics
// (throughput gauge, cache hit/miss counters, per-worker ring occupancy
// and drops, burst/packet latency histograms with exemplars), reports
// under "ingress" in /healthz, emits "ingress" span lanes into
// /debug/timeline, and adds a fifth SLO objective, ingress_latency,
// holding burst processing under -slo-latency-ns.
//
// The state observatory sweeps the engine's published snapshot every
// -state-interval (lock-free — never the device mutex), recording
// per-subtable structure into a ring of 360 frames served at
// /debug/state and mirrored into catcam_state_* metrics. Its linear
// capacity forecaster projects time-to-fill and time-to-fragmentation-
// stall; when either falls inside -state-horizon the sweep counts as a
// bad event on the fourth SLO objective, capacity_headroom, so a
// confirmed capacity burn pages through the same escalation path as a
// latency burn.
//
// SIGINT or SIGTERM triggers a graceful shutdown in either mode: the
// churn loop drains, background sweepers and the rebalancer stop, one
// final AuditSweep runs, the telemetry snapshot is flushed to stdout,
// and the HTTP server shuts down. The exit code reports the audit
// verdict, same as -duration.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	"catcam/internal/slo"
	"catcam/internal/stateobs"
	"catcam/internal/swclass"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// Sizes with one value in use: ring capacities, the rebalancer's batch
// and how long an SLO burn holds sampling at 100% with the CPU profile
// running.
const (
	eventRingCap     = 4096 // /events
	traceRingCap     = 1024 // /debug/trace
	spanRingCap      = 256  // /debug/timeline, /debug/blame
	stateRingFrames  = 360  // /debug/state
	rebalanceBatch   = 64   // max entries migrated per rebalance pass
	escalationWindow = 30 * time.Second
)

// options collects the parsed command line.
type options struct {
	addr      string
	family    string
	size      int
	seed      int64
	rate      int
	subtables int
	slots     int

	shards          int
	rebalance       time.Duration
	classifyWorkers int

	traceEvery    uint64
	auditEvery    uint64
	auditInterval time.Duration
	shadowEvery   uint64
	duration      time.Duration

	spanEvery    uint64
	sloInterval  time.Duration
	sloLatencyNs uint64

	stateInterval time.Duration
	stateHorizon  time.Duration

	ingress       bool
	workers       int
	flowcacheSize int
	zipfS         float64
	ingressFlows  int
	ingressRate   int

	finalDir string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":9090", "HTTP listen address")
	flag.StringVar(&o.family, "family", "ACL", "ruleset family: ACL, FW or IPC")
	flag.IntVar(&o.size, "size", 1000, "number of rules kept live")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed")
	flag.IntVar(&o.rate, "rate", 10000, "updates per second (0 = unthrottled)")
	flag.IntVar(&o.subtables, "subtables", 256, "subtable count (per shard in cluster mode)")
	flag.IntVar(&o.slots, "slots", 256, "entries per subtable")
	flag.IntVar(&o.shards, "shards", 1, "shard count; >= 2 runs a sharded cluster")
	flag.DurationVar(&o.rebalance, "rebalance", 0, "cluster rebalance pass period (0 = off)")
	flag.IntVar(&o.classifyWorkers, "classify-workers", 0, "extra concurrent classify goroutines replaying the trace against the lock-free path (0 = churn-loop lookups only)")
	flag.Uint64Var(&o.traceEvery, "trace-every", 0, "record a causal trace for every Nth update (0 = off)")
	flag.Uint64Var(&o.auditEvery, "audit-every", 0, "audit every Nth lookup inline (0 = off)")
	flag.DurationVar(&o.auditInterval, "audit-interval", 0, "background invariant sweep period (0 = off)")
	flag.Uint64Var(&o.shadowEvery, "shadow-every", 0, "shadow-check every Nth lookup against the software classifier (0 = off)")
	flag.DurationVar(&o.duration, "duration", 0, "run for this long, final-sweep and exit; nonzero exit on violations (0 = serve until signalled)")
	flag.Uint64Var(&o.spanEvery, "span-every", 0, "span-trace every Nth classify batch end-to-end (0 = off)")
	flag.DurationVar(&o.sloInterval, "slo-interval", 5*time.Second, "SLO sample/evaluate period")
	flag.Uint64Var(&o.sloLatencyNs, "slo-latency-ns", 1<<20, "classify-batch latency budget for the p999 objective (ns)")
	flag.DurationVar(&o.stateInterval, "state-interval", 5*time.Second, "state observatory sweep period")
	flag.DurationVar(&o.stateHorizon, "state-horizon", 10*time.Minute, "capacity-headroom horizon: forecast time-to-fill/time-to-stall inside it burns the capacity SLO")
	flag.BoolVar(&o.ingress, "ingress", false, "run the streaming packet front end: Zipf traffic through per-worker rings and flow caches into the classify path")
	flag.IntVar(&o.workers, "workers", 4, "ingress run-to-completion worker count (with -ingress)")
	flag.IntVar(&o.flowcacheSize, "flowcache-size", 65536, "per-worker flow-cache capacity in decisions; 0 disables the cache (with -ingress)")
	flag.Float64Var(&o.zipfS, "zipf-s", 1.2, "ingress traffic Zipf skew exponent; <= 1 means uniform flow popularity (with -ingress)")
	flag.IntVar(&o.ingressFlows, "ingress-flows", 1_000_000, "ingress flow-universe size: distinct 5-tuples in the generated traffic (with -ingress)")
	flag.IntVar(&o.ingressRate, "ingress-rate", 0, "ingress packets per second (0 = unthrottled, with -ingress)")
	flag.StringVar(&o.finalDir, "final-dir", "", "write metrics.json, slo.json, timeline.json and state.json here at shutdown")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-serve:", err)
		os.Exit(1)
	}
}

// engine is the slice of *core.Device and *cluster.Cluster the serve
// loop needs; both satisfy it unchanged.
type engine interface {
	InsertRule(rules.Rule) (core.UpdateResult, error)
	DeleteRule(ruleID int) (core.UpdateResult, error)
	LookupHeaderBatchTraced(tr *trace.Trace, hs []rules.Header, dst []core.LookupResult) []core.LookupResult
	Epoch() uint64
	AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels)
	AttachFlightRecorder(rec *flightrec.Recorder, table int)
	AttachAuditor(aud *flightrec.Auditor)
	AuditSweep() flightrec.SweepInfo
	ResetStats()
	DeriveStructure(dst *core.Structure) *core.Structure
	OnStatsReset(fn func())
}

func run(o options) error {
	var fam classbench.Family
	switch strings.ToUpper(o.family) {
	case "ACL":
		fam = classbench.ACL
	case "FW":
		fam = classbench.FW
	case "IPC":
		fam = classbench.IPC
	default:
		return fmt.Errorf("unknown family %q", o.family)
	}
	if o.shards < 1 {
		return fmt.Errorf("invalid -shards %d", o.shards)
	}

	reg := telemetry.NewRegistry()
	ring := telemetry.NewEventRing(eventRingCap)
	devCfg := core.Config{
		Subtables: o.subtables, SubtableCapacity: o.slots,
		KeyWidth: 160, FrequencyMHz: 500,
	}
	var eng engine
	var cl *cluster.Cluster
	var dev *core.Device
	if o.shards >= 2 {
		cl = cluster.New(cluster.Config{Shards: o.shards, Device: devCfg})
		eng = cl
	} else {
		dev = core.NewDevice(devCfg)
		eng = dev
	}
	eng.AttachTelemetry(reg, ring, nil)

	// State observatory: lock-free structural sweeps over the published
	// epoch snapshot, mirrored into catcam_state_* metrics and served at
	// /debug/state. Its Reset rides the engine's stats-reset hook, so the
	// post-bulk-load ResetStats below also clears the frame ring.
	obs := stateobs.New(eng, stateobs.Config{
		RingFrames: stateRingFrames,
		Horizon:    o.stateHorizon,
	})
	obs.AttachTelemetry(reg, nil)

	// Flight recorder: causal traces, the invariant auditor (always
	// attached so a corrupted decision is reported rather than fatal),
	// and the optional shadow classifier. The shadow must attach before
	// the bulk load so it mirrors every rule.
	rec := flightrec.NewRecorder(traceRingCap)
	rec.SetSampleEvery(o.traceEvery)
	eng.AttachFlightRecorder(rec, -1)
	aud := flightrec.NewAuditor(reg, ring, 256, nil)
	aud.SetLookupSampleEvery(o.auditEvery)
	eng.AttachAuditor(aud)
	var shadows []*flightrec.Shadow
	if o.shadowEvery > 0 {
		mkShadow := func() *flightrec.Shadow {
			sh := flightrec.NewShadow(swclass.NewLinear(), aud, -1)
			sh.SetSampleEvery(o.shadowEvery)
			shadows = append(shadows, sh)
			return sh
		}
		if cl != nil {
			// One shadow per shard: each mirrors exactly its shard's
			// partition of the rules.
			cl.AttachShadows(func(int) *flightrec.Shadow { return mkShadow() })
		} else {
			dev.AttachShadow(mkShadow())
		}
	}

	// Span layer: the tracer samples whole classify batches end-to-end;
	// the serve latency histogram carries per-bucket exemplars linking
	// /metrics.json tail buckets to retained traces.
	tracer := trace.NewTracer(spanRingCap)
	tracer.SetSampleEvery(o.spanEvery)
	lookupHist := reg.Histogram("catcam_serve_lookup_ns",
		"wall-clock latency of one batched classify call", telemetry.DefaultLatencyBuckets, nil)

	c, err := newChurner(eng, fam, o.size, o.seed)
	if err != nil {
		return err
	}
	c.tracer = tracer
	c.lookupHist = lookupHist
	// The bulk load is warmup; serve steady-state quantiles only.
	eng.ResetStats()
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		c.loop(o.rate, churnDone)
	}()
	// Concurrent readers: classify traffic racing the churn writer
	// through the epoch-snapshot path. Pure load generation — their
	// latencies stay out of the SLO histogram, which tracks the paced
	// churn-loop batches.
	for w := 0; w < o.classifyWorkers; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			c.readLoop(w, churnDone)
		}(w)
	}

	// Ingress front end: a Zipf traffic source over the same ruleset the
	// churner installed, dispatched by flow hash into per-worker rings,
	// each worker draining bursts through its private flow cache and
	// sending only misses into the engine's lock-free classify path. The
	// flow caches invalidate by epoch, so the concurrent churn above is
	// exactly the adversary they are built for.
	var ing *ingress.Engine
	if o.ingress {
		rs := classbench.Generate(classbench.Config{Family: fam, Size: o.size, Seed: o.seed})
		gen := ingress.NewGenerator(rs, ingress.GenConfig{
			Flows: o.ingressFlows, ZipfS: o.zipfS, Seed: o.seed + 3,
		})
		ing = ingress.New(ingress.Config{
			Workers:       o.workers,
			RingSize:      4096,
			Burst:         64,
			FlowCacheSize: o.flowcacheSize,
			Backend:       ingress.NewLookupBackend(eng),
			Tracer:        tracer,
		})
		ing.AttachTelemetry(reg, nil)
		ing.Start()
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			ing.RunSource(gen, o.ingressRate, churnDone)
		}()
	}

	sweepDone := make(chan struct{})
	var bgWG sync.WaitGroup
	if o.auditInterval > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			t := time.NewTicker(o.auditInterval)
			defer t.Stop()
			for {
				select {
				case <-sweepDone:
					return
				case <-t.C:
					eng.AuditSweep()
				}
			}
		}()
	}
	stopRebal := func() {}
	if cl != nil && o.rebalance > 0 {
		stopRebal = cl.StartRebalancer(o.rebalance, rebalanceBatch)
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		obs.Run(o.stateInterval, sweepDone)
	}()

	// SLO engine: three objectives over the serving telemetry, gated on
	// fast/slow burn windows. A confirmed burn triggers the bounded
	// escalation — every sampling knob to 1-in-1 and a CPU profile for
	// the escalation window — so the flight data is at full fidelity
	// exactly while the service is burning budget.
	var profMu sync.Mutex
	var profFile *os.File
	stopProfile := func() {
		profMu.Lock()
		defer profMu.Unlock()
		if profFile != nil {
			pprof.StopCPUProfile()
			fmt.Printf("catcam-serve: escalation: CPU profile written to %s\n", profFile.Name())
			_ = profFile.Close()
			profFile = nil
		}
	}
	esc := &slo.Escalation{
		Window: escalationWindow,
		Raise: func() {
			tracer.SetSampleEvery(1)
			rec.SetSampleEvery(1)
			aud.SetLookupSampleEvery(1)
			for _, sh := range shadows {
				sh.SetSampleEvery(1)
			}
			profMu.Lock()
			defer profMu.Unlock()
			dir := o.finalDir
			if dir == "" {
				dir = os.TempDir()
			}
			f, err := os.CreateTemp(dir, "catcam-burn-*.pprof")
			if err == nil {
				if pprof.StartCPUProfile(f) == nil {
					profFile = f
				} else {
					_ = f.Close()
				}
			}
			fmt.Println("catcam-serve: escalation raised: sampling at 100%, CPU profile running")
		},
		Restore: func() {
			tracer.SetSampleEvery(o.spanEvery)
			rec.SetSampleEvery(o.traceEvery)
			aud.SetLookupSampleEvery(o.auditEvery)
			for _, sh := range shadows {
				sh.SetSampleEvery(o.shadowEvery)
			}
			stopProfile()
			fmt.Println("catcam-serve: escalation restored: configured sampling rates back in effect")
		},
	}
	sloEng := slo.New(slo.Config{
		OnBurnStart: func(name string) {
			fmt.Printf("catcam-serve: SLO %s burning: fast and slow windows over threshold\n", name)
			esc.Trigger(time.Now())
		},
		OnBurnEnd: func(name string) {
			fmt.Printf("catcam-serve: SLO %s recovered\n", name)
		},
	})
	sloEng.Add(slo.Objective{
		Name:        "lookup_latency",
		Description: fmt.Sprintf("99.9%% of classify batches under %dns", o.sloLatencyNs),
		Target:      0.999,
		Source: func() (uint64, uint64) {
			return lookupHist.CountAbove(o.sloLatencyNs), lookupHist.Count()
		},
	})
	sloEng.Add(slo.Objective{
		Name:        "audit_violations",
		Description: "99.99% of audited invariant checks pass",
		Target:      0.9999,
		Source:      func() (uint64, uint64) { return aud.TotalViolations(), aud.TotalChecks() },
	})
	sloEng.Add(slo.Objective{
		Name:        "capacity_headroom",
		Description: fmt.Sprintf("99.9%% of capacity-forecast sweeps project headroom beyond %s", o.stateHorizon),
		Target:      0.999,
		Source:      obs.HeadroomSource(),
	})
	sloEng.Add(slo.Objective{
		Name:        "shadow_divergence",
		Description: "99.99% of shadow-classified lookups match the software reference",
		Target:      0.9999,
		Source: func() (uint64, uint64) {
			return aud.ViolationCount(flightrec.InvShadowMatch), aud.Checks(flightrec.InvShadowMatch)
		},
	})
	if ing != nil {
		sloEng.Add(slo.Objective{
			Name:        "ingress_latency",
			Description: fmt.Sprintf("99.9%% of ingress bursts processed under %dns", o.sloLatencyNs),
			Target:      0.999,
			Source: func() (uint64, uint64) {
				h := ing.BurstLatency()
				return h.CountAbove(o.sloLatencyNs), h.Count()
			},
		})
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		t := time.NewTicker(o.sloInterval)
		defer t.Stop()
		for {
			select {
			case <-sweepDone:
				return
			case now := <-t.C:
				sloEng.Sample(now)
				sloEng.Evaluate(now)
				esc.Tick(now)
			}
		}
	}()

	start := time.Now()
	http.Handle("/metrics", reg.MetricsHandler())
	http.Handle("/metrics.json", reg.JSONHandler())
	http.Handle("/events", ring.Handler())
	http.Handle("/debug/trace", rec.Handler())
	http.Handle("/debug/audit", aud.Handler())
	http.Handle("/slo", sloEng.Handler())
	http.Handle("/debug/timeline", tracer.TimelineHandler())
	http.Handle("/debug/blame", tracer.BlameHandler())
	http.Handle("/debug/state", obs.Handler())
	http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		body := map[string]any{
			"status":            "ok",
			"uptime_seconds":    time.Since(start).Seconds(),
			"workload":          fmt.Sprintf("%s %d", fam, o.size),
			"events_emitted":    ring.Total(),
			"audit_checks":      aud.TotalChecks(),
			"audit_violations":  aud.TotalViolations(),
			"traces_recorded":   rec.Total(),
			"span_traces":       tracer.Total(),
			"slo_healthy":       sloEng.Healthy(),
			"capacity_headroom": obs.Forecast().HeadroomOK,
			"escalations":       esc.Count(),
			"escalation_live":   esc.Active(),
			"shards":            o.shards,
		}
		if ing != nil {
			s := ing.Snapshot()
			body["ingress"] = map[string]any{
				"workers":      ing.Workers(),
				"packets":      s.Packets,
				"drops":        s.Drops,
				"cache_hits":   s.CacheHits,
				"cache_misses": s.CacheMisses,
				"hit_rate":     s.HitRate(),
			}
		}
		if cl != nil {
			passes, moved := cl.RebalanceStats()
			body["partition"] = "interval"
			body["bounds"] = cl.Bounds()
			body["entries"] = cl.Entries()
			body["shard_entries"] = cl.ShardEntries()
			body["rebalance_passes"] = passes
			body["rebalance_moved"] = moved
			epochs := make([]uint64, cl.NumShards())
			for i := range epochs {
				epochs[i] = cl.Shard(i).Epoch()
			}
			body["shard_epochs"] = epochs
		} else {
			body["entries"] = reg.Gauge("catcam_entries", "", nil).Value()
			body["active_subtables"] = reg.Gauge("catcam_active_subtables", "", nil).Value()
			body["epoch"] = dev.Epoch()
		}
		_ = json.NewEncoder(w).Encode(body)
	})
	// expvar's /debug/vars handler registers itself on the default mux;
	// publish the telemetry snapshot there too.
	expvar.Publish("catcam", expvar.Func(func() any { return reg.Snapshot() }))

	engDesc := fmt.Sprintf("%dx%d device", o.subtables, o.slots)
	if cl != nil {
		engDesc = fmt.Sprintf("%d-shard interval cluster of %dx%d devices", o.shards, o.subtables, o.slots)
	}
	fmt.Printf("catcam-serve: %s %d rules on %s, churn %d updates/s\n",
		fam, o.size, engDesc, o.rate)
	if ing != nil {
		fmt.Printf("catcam-serve: ingress: %d workers, %d-decision flow caches, %d-flow universe (zipf-s %.2f)\n",
			o.workers, o.flowcacheSize, o.ingressFlows, o.zipfS)
	}
	fmt.Printf("catcam-serve: listening on %s (/metrics /metrics.json /events /healthz /slo /debug/trace /debug/timeline /debug/blame /debug/state /debug/audit /debug/vars /debug/pprof)\n", o.addr)

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	srv := &http.Server{Addr: o.addr}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	var timeout <-chan time.Time
	if o.duration > 0 {
		timeout = time.After(o.duration)
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Println("catcam-serve: signal received, draining")
	case <-timeout:
	}
	stopSig()

	// Graceful shutdown: drain the churn loop so no update is cut off
	// mid-flight, stop the background sweeper and rebalancer, then run
	// the final audit over a quiescent engine and flush telemetry.
	close(churnDone)
	churnWG.Wait()
	if ing != nil {
		// The pump is part of churnWG, so no new packets arrive; Stop
		// waits for the workers to drain what is already ringed.
		s := ing.Stop()
		fmt.Printf("catcam-serve: ingress: %d packets, %.1f%% cache hits, %d drops across %d workers\n",
			s.Packets, 100*s.HitRate(), s.Drops, ing.Workers())
	}
	close(sweepDone)
	bgWG.Wait()
	stopRebal()

	stopProfile()
	auditErr := finalAudit(eng, aud, shadows)
	if cl != nil {
		passes, moved := cl.RebalanceStats()
		fmt.Printf("catcam-serve: rebalancer: %d passes, %d rules moved, shard entries %v\n",
			passes, moved, cl.ShardEntries())
	}

	// Final flush: one last structural sweep and SLO evaluation over the
	// quiescent counters, then the combined telemetry+SLO snapshot to
	// stdout, and (for CI artifact upload) the metrics, SLO, timeline
	// and state JSON to -final-dir.
	finalNow := time.Now()
	obs.Sweep(finalNow)
	sloEng.Sample(finalNow)
	sloStatus := sloEng.Evaluate(finalNow)
	if sloStatus.Healthy {
		fmt.Println("catcam-serve: SLO verdict: healthy, no objective burning")
	} else {
		fmt.Println("catcam-serve: SLO verdict: BURNING at shutdown")
	}
	snap := reg.Snapshot()
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{
		"telemetry": snap, "slo": sloStatus,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-serve: telemetry flush:", err)
	}
	if o.finalDir != "" {
		if err := writeFinalArtifacts(o.finalDir, snap, sloStatus, tracer, obs.Report(finalNow)); err != nil {
			fmt.Fprintln(os.Stderr, "catcam-serve: final artifacts:", err)
		} else {
			fmt.Printf("catcam-serve: final artifacts written to %s\n", o.finalDir)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-serve: http shutdown:", err)
	}
	return auditErr
}

// writeFinalArtifacts dumps the shutdown state for CI upload: the full
// metrics snapshot, the SLO status, every retained span trace as a
// Perfetto-loadable timeline, and the state observatory's report (the
// capacity forecast plus the structural heatmap over the run).
func writeFinalArtifacts(dir string, snap any, st slo.Status, tracer *trace.Tracer, state *stateobs.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeJSON := func(name string, v any) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeJSON("metrics.json", snap); err != nil {
		return err
	}
	if err := writeJSON("slo.json", st); err != nil {
		return err
	}
	if err := writeJSON("state.json", state); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "timeline.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteTimeline(f, tracer.Snapshot()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// finalAudit runs one last sweep after the churn drains and reports the
// verdict: any violation observed during the run fails the process.
func finalAudit(eng engine, aud *flightrec.Auditor, shadows []*flightrec.Shadow) error {
	info := eng.AuditSweep()
	fmt.Printf("catcam-serve: final sweep: %d checks in %.1fms\n", info.Checks, info.DurationMs)
	for i, sh := range shadows {
		if bad, reason := sh.Desynced(); bad {
			fmt.Fprintf(os.Stderr, "catcam-serve: warning: shadow classifier %d desynced (%s); differential coverage was partial\n", i, reason)
		}
	}
	checks, violations := aud.TotalChecks(), aud.TotalViolations()
	if violations == 0 {
		fmt.Printf("catcam-serve: audit clean: %d checks, 0 violations\n", checks)
		return nil
	}
	for _, v := range aud.Violations() {
		fmt.Fprintf(os.Stderr, "catcam-serve: violation #%d %s subtable=%d rule=%d: %s\n",
			v.Seq, v.Invariant, v.Subtable, v.RuleID, v.Detail)
	}
	return fmt.Errorf("%d invariant violations in %d checks", violations, checks)
}

// churner drives a self-sustaining update stream: each step deletes a
// random live rule or reinserts a previously deleted one at a fresh
// priority (classbench.UpdateTraceFresh semantics, generated online so
// the stream never ends), plus one lookup.
type churner struct {
	eng     engine
	rng     *rand.Rand
	live    []rules.Rule
	deleted []rules.Rule
	headers []rules.Header
	nextID  int
	hdr     int
	// batched-lookup scratch, reused so the churn loop's classify
	// traffic allocates nothing at steady state.
	hdrBatch []rules.Header
	results  []core.LookupResult
	// span layer: sampled batches carry a trace through every layer and
	// stamp the latency histogram's bucket exemplar with their trace ID.
	tracer     *trace.Tracer
	lookupHist *telemetry.Histogram
}

func newChurner(eng engine, fam classbench.Family, size int, seed int64) (*churner, error) {
	rs := classbench.Generate(classbench.Config{Family: fam, Size: size, Seed: seed})
	c := &churner{
		eng:     eng,
		rng:     rand.New(rand.NewSource(seed + 1)),
		headers: classbench.PacketTrace(rs, 4096, 0.9, seed+2),
	}
	for _, r := range rs.Rules {
		if _, err := eng.InsertRule(r); err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
		c.live = append(c.live, r)
		if r.ID >= c.nextID {
			c.nextID = r.ID + 1
		}
	}
	return c, nil
}

// step performs one update. Lookup traffic is issued separately in
// batches (see lookups) so the engine lock and classify scratch are
// amortized the way a real ingress pipeline amortizes per-packet cost.
func (c *churner) step() {
	doInsert := c.rng.Intn(2) == 0
	if doInsert && len(c.deleted) > 0 {
		i := c.rng.Intn(len(c.deleted))
		r := c.deleted[i]
		c.deleted[i] = c.deleted[len(c.deleted)-1]
		c.deleted = c.deleted[:len(c.deleted)-1]
		r.ID = c.nextID
		c.nextID++
		r.Priority = 1 + c.rng.Intn(65535)
		if _, err := c.eng.InsertRule(r); err == nil {
			c.live = append(c.live, r)
		} else {
			c.deleted = append(c.deleted, r)
		}
	} else if len(c.live) > 0 {
		i := c.rng.Intn(len(c.live))
		r := c.live[i]
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		c.deleted = append(c.deleted, r)
		_, _ = c.eng.DeleteRule(r.ID)
	}
}

// lookups classifies the next n trace headers in one batched engine
// call (one update : one lookup overall, same as before batching).
// Every batch's wall latency lands in the serve histogram; a sampled
// batch additionally carries a span trace end-to-end and stamps its
// trace ID onto the bucket it lands in, so a tail bucket in
// /metrics.json links to a retrievable span tree.
func (c *churner) lookups(n int) {
	if len(c.headers) == 0 {
		return
	}
	c.hdrBatch = c.hdrBatch[:0]
	for i := 0; i < n; i++ {
		c.hdrBatch = append(c.hdrBatch, c.headers[c.hdr%len(c.headers)])
		c.hdr++
	}
	tr := c.tracer.Start("classify")
	startNs := trace.Nanos()
	c.results = c.eng.LookupHeaderBatchTraced(tr, c.hdrBatch, c.results[:0])
	durNs := trace.Nanos() - startNs
	if tr != nil {
		c.tracer.Finish(tr)
		c.lookupHist.ObserveExemplar(durNs, tr.ID)
	} else {
		c.lookupHist.Observe(durNs)
	}
}

// readLoop replays the packet trace in 64-header batches until done
// closes: the classify side of the readers-vs-writer race that the
// epoch-snapshot path makes safe. Each reader owns its batch and
// result scratch; the header slice itself is shared read-only.
func (c *churner) readLoop(worker int, done <-chan struct{}) {
	if len(c.headers) == 0 {
		return
	}
	var results []core.LookupResult
	batch := make([]rules.Header, 0, 64)
	next := worker * 64 // stagger the readers across the trace
	for {
		select {
		case <-done:
			return
		default:
		}
		batch = batch[:0]
		for i := 0; i < 64; i++ {
			batch = append(batch, c.headers[next%len(c.headers)])
			next++
		}
		results = c.eng.LookupHeaderBatchTraced(nil, batch, results[:0])
	}
}

// loop paces the churn at the requested rate in 10ms batches: a burst
// of updates, then the matching burst of lookups as one batched call.
// Only this goroutine drives traffic; HTTP handlers read the atomic
// telemetry (and the engine itself is safe for concurrent use). The
// loop drains — finishing its current burst — when done closes.
func (c *churner) loop(rate int, done <-chan struct{}) {
	if rate <= 0 {
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < 64; i++ {
				c.step()
			}
			c.lookups(64)
		}
	}
	const tick = 10 * time.Millisecond
	batch := rate / 100
	if batch < 1 {
		batch = 1
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			for i := 0; i < batch; i++ {
				c.step()
			}
			c.lookups(batch)
		}
	}
}
