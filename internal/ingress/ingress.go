// Package ingress is the streaming packet front end: a software model
// of a wire-rate NIC-to-classifier path in front of the ternary array.
//
// The shape follows DPDK-style run-to-completion designs. A single
// traffic source (synthetic generator or replayed trace) dispatches
// each packet by flow hash to one of N workers; each worker owns a
// bounded SPSC ring, drains it in bursts, consults its private
// exact-match flow cache, and sends only the misses to the ternary
// slow path in one batched lookup. Backpressure is drop-based: a full
// ring rejects, the source accounts the drop, and nothing blocks.
//
// The hand-off pays per burst what it can. With one worker there is no
// choice, so no flow hash is computed. Each ring side keeps a plain
// copy of the far cursor on its own cache line and reloads it only
// when the copy runs short — the producer's head copy when it shows
// less room than a push needs, the consumer's tail copy when it shows
// fewer headers than a burst wants — so a cursor line crosses cores
// once per reload, not once per packet (see Ring).
//
// The flow cache is coherent under concurrent rule churn by epoch
// validation (see FlowCache): each burst loads the backend's
// published-snapshot epoch once, and a cached decision hits when its
// stamp equals it or, over a single device, when the device's change
// log shows that no change since the stamp can alter it. Every decision
// a burst returns is therefore the answer at some epoch between an
// epoch read before the burst and one read after it — the same window
// any direct lock-free lookup has — which the window-oracle tests check
// under the race detector; cache-on and cache-off produce identical
// decisions at every quiescent point.
package ingress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
	tracepkg "catcam/internal/trace"
)

// Result is one packet's classification decision: the winning rule's
// action, and whether any rule matched at all.
type Result struct {
	Action  int32
	Matched bool
}

// Backend is the slow path behind the flow cache. Implementations must
// be safe for concurrent use by every worker.
type Backend interface {
	// ClassifyBatch classifies hs, appending one Result per header to
	// dst and returning it. tr may be nil.
	ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []Result) []Result
	// Epoch is the backend's published-snapshot stamp: it changes
	// whenever any rule changes. Workers load it once per burst to
	// validate and fill flow-cache entries.
	Epoch() uint64
}

// lookupBackend adapts a single device or a cluster. The result-slice
// scratch is pooled so concurrent workers share nothing and the steady
// state is allocation-free.
type lookupBackend struct {
	dev flowtable.Backend
	// rv is dev when it is a *core.Device, whose change log lets the flow
	// cache revalidate; held concretely so the revalidating cache lookup
	// stays a static, analyzer-checked call.
	rv   *core.Device
	pool sync.Pool // *[]core.LookupResult
}

// NewLookupBackend wraps a single device or a cluster as the ingress
// slow path.
func NewLookupBackend(dev flowtable.Backend) Backend {
	rv, _ := dev.(*core.Device)
	return &lookupBackend{
		dev:  dev,
		rv:   rv,
		pool: sync.Pool{New: func() any { s := make([]core.LookupResult, 0, 256); return &s }},
	}
}

func (b *lookupBackend) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []Result) []Result {
	dst, _ = b.classifyRanked(tr, hs, dst, nil)
	return dst
}

// classifyRanked is ClassifyBatch that also appends each answer's
// winning rank (zero for no match) to ranks, unless ranks is nil.
func (b *lookupBackend) classifyRanked(tr *tracepkg.Trace, hs []rules.Header, dst []Result, ranks []core.Rank) ([]Result, []core.Rank) {
	sp := b.pool.Get().(*[]core.LookupResult)
	res := b.dev.LookupHeaderBatchTraced(tr, hs, (*sp)[:0])
	for _, r := range res {
		dst = append(dst, Result{Action: int32(r.Entry.Action), Matched: r.OK})
		if ranks != nil {
			ranks = append(ranks, r.Entry.Rank)
		}
	}
	*sp = res[:0]
	b.pool.Put(sp)
	return dst, ranks
}

func (b *lookupBackend) Epoch() uint64 { return b.dev.Epoch() }

// pipelineBackend adapts a multi-table *flowtable.Pipeline: the action
// is the pipeline verdict, and "matched" means not flowtable.Drop.
type pipelineBackend struct {
	p    *flowtable.Pipeline
	pool sync.Pool // *[]int
}

// NewPipelineBackend wraps a flowtable pipeline as the ingress slow
// path.
func NewPipelineBackend(p *flowtable.Pipeline) Backend {
	return &pipelineBackend{
		p:    p,
		pool: sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }},
	}
}

func (b *pipelineBackend) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []Result) []Result {
	sp := b.pool.Get().(*[]int)
	acts := b.p.ClassifyBatch(tr, hs, (*sp)[:0])
	for _, a := range acts {
		dst = append(dst, Result{Action: int32(a), Matched: a != flowtable.Drop})
	}
	*sp = acts[:0]
	b.pool.Put(sp)
	return dst
}

func (b *pipelineBackend) Epoch() uint64 { return b.p.Epoch() }

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of run-to-completion workers (default 1).
	Workers int
	// RingSize is the per-worker ring capacity in packets, rounded up
	// to a power of two (default 2048).
	RingSize int
	// Burst is the maximum packets drained per ring visit (default 64).
	Burst int
	// FlowCacheSize is the per-worker flow-cache capacity in decisions;
	// 0 disables the cache entirely.
	FlowCacheSize int
	// Backend is the slow path (required).
	Backend Backend
	// Tracer, when set, samples bursts into ingress spans.
	Tracer *tracepkg.Tracer
	// Sink, when set, observes every processed burst (same worker
	// goroutine, slices valid only during the call). Test/example hook.
	Sink func(worker int, hs []rules.Header, results []Result)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 2048
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	return cfg
}

// WorkerStats is one worker's counters, all monotonic except
// RingOccupancy.
type WorkerStats struct {
	Packets     uint64 // packets classified (hits + misses)
	Bursts      uint64 // ring drains that yielded at least one packet
	CacheHits   uint64
	CacheMisses uint64
	// StaleMisses are the cache misses on an entry the flow already had,
	// stamped at an older epoch and not revalidated; the rest of
	// CacheMisses are cold or capacity misses.
	StaleMisses   uint64
	Drops         uint64 // packets rejected by a full ring
	RingOccupancy int    // instantaneous
}

// Stats is an engine-wide snapshot.
type Stats struct {
	Packets     uint64
	Bursts      uint64
	CacheHits   uint64
	CacheMisses uint64
	StaleMisses uint64
	Drops       uint64
	Workers     []WorkerStats
}

// HitRate returns cache hits / packets (0 when no packets yet).
func (s Stats) HitRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Packets)
}

// worker is one run-to-completion lane: ring, private cache, private
// scratch. Everything here is touched only by the worker goroutine
// (drops by the producer), so the burst loop is lock- and
// allocation-free.
type worker struct {
	id    int
	eng   *Engine
	ring  *Ring
	cache *FlowCache

	// drops is producer-side (Dispatch accounts rejected pushes); it
	// sits with the worker only so per-worker attribution is free.
	drops counter

	burst    []rules.Header // ring drain scratch
	missHdrs []rules.Header // cache misses, in burst order
	missIdx  []int          // burst index of each miss
	slow     []Result       // slow-path results scratch
	ranks    []core.Rank    // each slow-path result's winning rank, when the cache revalidates
	results  []Result       // per-packet decisions for the burst

	packets counter
	bursts  counter
	hits    counter
	misses  counter
	stale   counter
}

// counter is a padded atomic counter: written by one goroutine, read
// by stats snapshots, padded so adjacent workers' counters never share
// a cache line.
type counter struct {
	v atomic.Uint64
	_ [56]byte
}

//catcam:hotpath
func (c *counter) Inc() { c.v.Add(1) }

//catcam:hotpath
func (c *counter) Add(n uint64) { c.v.Add(n) }

func (c *counter) Value() uint64 { return c.v.Load() }

// Engine owns the workers and their rings. Lifecycle: New → optional
// AttachTelemetry → Start → (Dispatch / RunSource from one source
// goroutine) → Stop.
type Engine struct {
	cfg     Config
	workers []*worker
	// ranked is cfg.Backend when the flow caches revalidate through its
	// device, nil when they flush (over a cluster, a pipeline or a
	// wrapper).
	ranked *lookupBackend

	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool

	// Telemetry (nil until AttachTelemetry; every use is nil-safe).
	ppsGauge  *telemetry.Gauge
	burstHist *telemetry.Histogram
	pktHist   *telemetry.Histogram
}

// New builds an engine. Panics if cfg.Backend is nil — there is no
// meaningful default slow path.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		panic("ingress: Config.Backend is required")
	}
	e := &Engine{cfg: cfg, done: make(chan struct{})}
	if lb, ok := cfg.Backend.(*lookupBackend); ok && lb.rv != nil && cfg.FlowCacheSize > 0 {
		e.ranked = lb
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:       i,
			eng:      e,
			ring:     NewRing(cfg.RingSize),
			cache:    NewFlowCache(cfg.FlowCacheSize),
			burst:    make([]rules.Header, 0, cfg.Burst),
			missHdrs: make([]rules.Header, 0, cfg.Burst),
			missIdx:  make([]int, 0, cfg.Burst),
			slow:     make([]Result, 0, cfg.Burst),
			results:  make([]Result, 0, cfg.Burst),
		}
		if e.ranked != nil {
			w.cache.dev = e.ranked.rv
			w.ranks = make([]core.Rank, 0, cfg.Burst)
		}
		e.workers = append(e.workers, w)
	}
	return e
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return len(e.workers) }

// AttachTelemetry registers the ingress metric family on reg. Call
// before Start. The packet, drop and cache counters sum the workers'
// own counters and the ring occupancy reads each ring, when the
// registry exports.
func (e *Engine) AttachTelemetry(reg *telemetry.Registry, labels telemetry.Labels) {
	if reg == nil {
		return
	}
	sum := func(field func(*worker) *counter) func() uint64 {
		return func() (n uint64) {
			for _, w := range e.workers {
				n += field(w).Value()
			}
			return n
		}
	}
	reg.CounterFunc("catcam_ingress_packets_total", "Packets classified by the ingress fast path (cache hits + slow-path misses).",
		labels, sum(func(w *worker) *counter { return &w.packets }))
	reg.CounterFunc("catcam_ingress_drops_total", "Packets dropped at dispatch because the target worker's ring was full.",
		labels, sum(func(w *worker) *counter { return &w.drops }))
	reg.CounterFunc("catcam_ingress_cache_hits_total", "Flow-cache hits (decision served without touching the ternary array).",
		labels, sum(func(w *worker) *counter { return &w.hits }))
	reg.CounterFunc("catcam_ingress_cache_misses_total", "Flow-cache misses (decision refilled through the ternary slow path).",
		labels, sum(func(w *worker) *counter { return &w.misses }))
	reg.CounterFunc("catcam_ingress_cache_stale_misses_total", "Flow-cache misses on an entry stamped at an older epoch that could not be revalidated (the rest are cold or capacity misses).",
		labels, sum(func(w *worker) *counter { return &w.stale }))
	e.ppsGauge = reg.Gauge("catcam_ingress_pps",
		"Ingress throughput over the last rate-sampling interval, packets per second.", labels)
	e.burstHist = reg.Histogram("catcam_ingress_burst_ns",
		"Wall time to process one ingress burst (drain, cache scan, slow path).",
		telemetry.DefaultLatencyBuckets, labels)
	e.pktHist = reg.Histogram("catcam_ingress_packet_ns",
		"Amortized per-packet ingress latency (burst time / burst size).",
		telemetry.DefaultLatencyBuckets, labels)
	for i, w := range e.workers {
		reg.GaugeFunc("catcam_ingress_ring_occupancy",
			"Instantaneous ring occupancy, read from the ring at scrape time.",
			labels.Merged(telemetry.Labels{"worker": fmt.Sprint(i)}),
			func() int64 { return int64(w.ring.Len()) })
	}
}

// BurstLatency exposes the burst-latency histogram (nil before
// AttachTelemetry) so callers can wire SLO objectives against it.
func (e *Engine) BurstLatency() *telemetry.Histogram { return e.burstHist }

// Start launches the worker goroutines, plus the pps sampler when
// AttachTelemetry registered its gauge.
func (e *Engine) Start() {
	if e.started {
		panic("ingress: Start called twice")
	}
	e.started = true
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *worker) {
			defer e.wg.Done()
			w.run()
		}(w)
	}
	if e.ppsGauge == nil {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.rateLoop()
	}()
}

// Stop signals the workers, waits for them to drain their rings, and
// returns the final stats. The traffic source must have stopped
// dispatching first; packets pushed after Stop may still be processed
// during the drain but there is no ordering guarantee with it.
func (e *Engine) Stop() Stats {
	if e.started && !e.stopped {
		e.stopped = true
		close(e.done)
		e.wg.Wait()
	}
	return e.Snapshot()
}

// Snapshot returns current engine-wide stats. Safe to call anytime;
// counters are monotonic but sampled per worker, so cross-worker sums
// are momentary.
func (e *Engine) Snapshot() Stats {
	s := Stats{Workers: make([]WorkerStats, len(e.workers))}
	for i, w := range e.workers {
		ws := WorkerStats{
			Packets:       w.packets.Value(),
			Bursts:        w.bursts.Value(),
			CacheHits:     w.hits.Value(),
			CacheMisses:   w.misses.Value(),
			StaleMisses:   w.stale.Value(),
			Drops:         w.drops.Value(),
			RingOccupancy: w.ring.Len(),
		}
		s.Workers[i] = ws
		s.Packets += ws.Packets
		s.Bursts += ws.Bursts
		s.CacheHits += ws.CacheHits
		s.CacheMisses += ws.CacheMisses
		s.StaleMisses += ws.StaleMisses
		s.Drops += ws.Drops
	}
	return s
}

// workerFor returns the flow-affinity worker index for h: the same
// 5-tuple always lands on the same worker, so each private flow cache
// sees a stable slice of the flow space. With one worker there is no
// choice to make, and no hash is computed.
//
//catcam:hotpath
func (e *Engine) workerFor(h rules.Header) int {
	if len(e.workers) == 1 {
		return 0
	}
	// High bits of the mixed hash; the low bits pick the cache set, and
	// reusing them would make every flow on this worker collide into a
	// fraction of its cache.
	return int((flowHash(h) >> 48) * uint64(len(e.workers)) >> 16)
}

// Dispatch routes one packet to its flow-affinity worker, returning
// false (and accounting a drop) when that worker's ring is full.
// Single source goroutine only.
//
//catcam:hotpath
//catcam:ring-producer
func (e *Engine) Dispatch(h rules.Header) bool {
	w := e.workers[e.workerFor(h)]
	if !w.ring.TryPush(h) {
		w.drops.Inc()
		return false
	}
	return true
}

// DispatchBatch routes each header, returning how many were accepted.
//
//catcam:ring-producer
func (e *Engine) DispatchBatch(hs []rules.Header) int {
	accepted := 0
	for _, h := range hs {
		if e.Dispatch(h) {
			accepted++
		}
	}
	return accepted
}

// RunSource pumps packets from gen until done closes: the traffic
// source side of the engine. rate limits dispatch to roughly that many
// packets per second (0 = unthrottled); limiting is per 10ms tick, the
// same granularity catcam-serve's churner uses.
//
//catcam:ring-producer
func (e *Engine) RunSource(gen *Generator, rate int, done <-chan struct{}) {
	const tick = 10 * time.Millisecond
	burst := make([]rules.Header, e.cfg.Burst)
	if rate > 0 {
		perTick := rate / int(time.Second/tick)
		if perTick < 1 {
			perTick = 1
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			sent := 0
			for sent < perTick {
				n := perTick - sent
				if n > len(burst) {
					n = len(burst)
				}
				gen.Fill(burst[:n])
				e.DispatchBatch(burst[:n])
				sent += n
			}
		}
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		gen.Fill(burst)
		if e.DispatchBatch(burst) == 0 {
			// Every ring full: yield so the workers can drain instead of
			// spinning the source at allocation rate zero but CPU rate one.
			runtime.Gosched()
		}
	}
}

// rateLoop samples packet counters once per second into the pps gauge.
func (e *Engine) rateLoop() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	last := uint64(0)
	lastAt := time.Now()
	for {
		select {
		case <-e.done:
			return
		case now := <-t.C:
			var total uint64
			for _, w := range e.workers {
				total += w.packets.Value()
			}
			dt := now.Sub(lastAt).Seconds()
			if dt > 0 {
				e.ppsGauge.Set(int64(float64(total-last) / dt))
			}
			last, lastAt = total, now
		}
	}
}

// run is the worker loop: drain a burst, process it, spin-yield when
// idle, exit once the engine is stopping and the ring is empty.
//
//catcam:ring-consumer
func (w *worker) run() {
	for {
		w.burst = w.ring.PopBatch(w.burst[:0], w.eng.cfg.Burst)
		if len(w.burst) == 0 {
			select {
			case <-w.eng.done:
				if w.ring.Len() == 0 {
					return
				}
			default:
				runtime.Gosched()
			}
			continue
		}
		w.process(w.burst)
	}
}

// process classifies one burst: load the epoch once, scan the cache
// (revalidating older stamps up to that epoch), batch the misses
// through the slow path, refill the cache with the results. Loading the
// epoch before the scan bounds staleness to this burst: a revalidated
// entry is the answer at the loaded epoch, and any rule change after
// the load has a strictly greater epoch, so nothing this burst caches
// is served once that change is visible unless the change log clears
// it.
//
//catcam:ring-consumer
func (w *worker) process(hs []rules.Header) {
	eng := w.eng
	tr := eng.cfg.Tracer.Start("ingress")
	start := tracepkg.Nanos()

	epoch := eng.cfg.Backend.Epoch()
	w.results = w.results[:0]
	w.missHdrs = w.missHdrs[:0]
	w.missIdx = w.missIdx[:0]
	stale := w.cache.StaleMisses()
	for i, h := range hs {
		if action, matched, hit := w.cache.Lookup(h, epoch); hit {
			w.results = append(w.results, Result{Action: action, Matched: matched})
		} else {
			w.results = append(w.results, Result{})
			w.missIdx = append(w.missIdx, i)
			w.missHdrs = append(w.missHdrs, h)
		}
	}
	nStale := w.cache.StaleMisses() - stale
	if len(w.missHdrs) > 0 {
		if eng.ranked != nil {
			w.slow, w.ranks = eng.ranked.classifyRanked(tr, w.missHdrs, w.slow[:0], w.ranks[:0])
		} else {
			w.slow = eng.cfg.Backend.ClassifyBatch(tr, w.missHdrs, w.slow[:0])
		}
		for j, r := range w.slow {
			w.results[w.missIdx[j]] = r
			e := flowEntry{hdr: w.missHdrs[j], epoch: epoch, action: r.Action, ok: r.Matched}
			if eng.ranked != nil {
				e.setWinner(w.ranks[j])
			}
			w.cache.insert(e)
		}
	}

	durNs := tracepkg.Nanos() - start
	nPkts := uint64(len(hs))
	nMiss := uint64(len(w.missHdrs))
	w.packets.Add(nPkts)
	w.bursts.Inc()
	w.hits.Add(nPkts - nMiss)
	w.misses.Add(nMiss)
	w.stale.Add(nStale)
	if eng.pktHist != nil {
		eng.pktHist.Observe(durNs / nPkts)
	}
	if tr != nil {
		tr.Span(tracepkg.StageIngress, -1, w.id, -1, -1, start, 0)
		eng.cfg.Tracer.Finish(tr)
		if eng.burstHist != nil {
			eng.burstHist.ObserveExemplar(durNs, tr.ID)
		}
	} else if eng.burstHist != nil {
		eng.burstHist.Observe(durNs)
	}
	if eng.cfg.Sink != nil {
		eng.cfg.Sink(w.id, hs, w.results)
	}
}

// ProcessSync pushes hs through one worker's burst path synchronously
// on the calling goroutine, returning the per-packet decisions (valid
// until the worker's next burst). For tests and single-threaded
// benchmarks only: never call it on an engine whose workers are
// running — it shares the worker's private scratch and cache.
func (e *Engine) ProcessSync(workerID int, hs []rules.Header) []Result {
	if e.started && !e.stopped {
		panic("ingress: ProcessSync on a running engine")
	}
	w := e.workers[workerID]
	//catcam:allow ring "synchronous test path; the panic above proves no worker goroutine is running"
	w.process(hs)
	return w.results
}
