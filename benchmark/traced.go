package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	tracepkg "catcam/internal/trace"
)

// tracedUpdateOps is the size of the traced run's update phase.
const tracedUpdateOps = 1000

// tracedReps is how often the traced run is repeated, each time on a
// fresh stack. The repetitions do the same work burst for burst, so a
// span's shortest duration over them is what the call costs and the
// rest is what the host did to it; every traced timing is taken from
// those (the same rule as opFastest, for the same reason).
const tracedReps = 5

// allocWindows is how many equal windows of bursts the traced classify
// loop counts allocations in.
const allocWindows = 8

// span is one interval the harness recorded from outside, around a
// call into a layer's public function. All spans of one burst share
// its ID; Parent names the span of the same ID that caused this one.
// A replayed span was timed after the classify loop, by sending the
// recorded miss batch through a lower layer's entry point again, so its
// interval lies outside its parent's.
type span struct {
	ID      int    `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	N       int    `json:"n"`
	// QuietNs is the span's shortest duration over the repetitions;
	// StartNs and EndNs are the first repetition's.
	QuietNs int64 `json:"quiet_ns"`
	Replay  bool  `json:"replay,omitempty"`
}

// Span names: internal/trace's stage vocabulary where the boundary can
// be reached from outside, plus update_op.
var (
	spanIngress       = tracepkg.StageIngress.String()
	spanTableClassify = tracepkg.StageTableClassify.String()
	spanFanout        = tracepkg.StageFanoutDispatch.String()
	spanShardKernel   = tracepkg.StageShardKernel.String()
	spanDeviceLookup  = tracepkg.StageDeviceLookup.String()
	spanSRAMKernel    = tracepkg.StageSRAMKernel.String()
)

const spanUpdateOp = "update_op"

// recorder keeps spans in memory; the file is written when the run
// ends. Its capacity is fixed up front so that recording allocates
// nothing inside the measured loops.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) now() int64 { return time.Since(r.base).Nanoseconds() }

func (r *recorder) add(s span) {
	s.QuietNs = s.EndNs - s.StartNs
	r.spans = append(r.spans, s)
}

// timeCall records s around call.
func (r *recorder) timeCall(s span, call func()) {
	s.StartNs = r.now()
	call()
	s.EndNs = r.now()
	r.add(s)
}

// total sums the quiet durations and the n of the spans called name
// that were (replay) or were not replayed.
func (r *recorder) total(name string, replay bool) (ns int64, n, calls int) {
	for _, s := range r.spans {
		if s.Name == name && s.Replay == replay {
			ns += s.QuietNs
			n += s.N
			calls++
		}
	}
	return ns, n, calls
}

// tracedBackend is the wrapper the harness owns around ingress.Backend:
// it times every slow-path call and keeps the miss batch for replay.
type tracedBackend struct {
	inner ingress.Backend
	rec   *recorder
	name  string
	burst int
	// hdrs holds every miss batch back to back; ends[i] is where
	// batch i stops and bursts[i] the burst it belongs to.
	hdrs   []rules.Header
	ends   []int
	bursts []int
}

func (b *tracedBackend) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []ingress.Result) []ingress.Result {
	start := b.rec.now()
	dst = b.inner.ClassifyBatch(tr, hs, dst)
	b.rec.add(span{ID: b.burst, Parent: spanIngress, Name: b.name, StartNs: start, EndNs: b.rec.now(), N: len(hs)})
	b.hdrs = append(b.hdrs, hs...)
	b.ends = append(b.ends, len(b.hdrs))
	b.bursts = append(b.bursts, b.burst)
	return dst
}

func (b *tracedBackend) Epoch() uint64 { return b.inner.Epoch() }

// devCounters is the lookup-side activity of one leaf device.
type devCounters struct {
	lookups, lookupCycles, searches uint64
	matchEnergyFJ                   float64
}

func readDev(d *core.Device) devCounters {
	s := d.Stats()
	m, _, _ := d.ArrayStats()
	return devCounters{lookups: s.Lookups, lookupCycles: s.LookupCycles, searches: m.Searches, matchEnergyFJ: m.EnergyFJ}
}

func (c *devCounters) addDelta(now, then devCounters) {
	c.lookups += now.lookups - then.lookups
	c.lookupCycles += now.lookupCycles - then.lookupCycles
	c.searches += now.searches - then.searches
	c.matchEnergyFJ += now.matchEnergyFJ - then.matchEnergyFJ
}

// window accumulates counters over the stretches of the traced classify
// loop in which only bursts run (no update, no checking), so that
// lookup-side counts are not mixed with what updates write.
type window struct {
	st     *stack
	wallNs int64
	devs   []devCounters
	// mallocs[k] counts the allocations of the k-th of allocWindows equal
	// shares of the bursts; cur is the share the loop is in.
	mallocs [allocWindows]uint64
	cur     int
	m0      runtime.MemStats
	d0      []devCounters
	t0      time.Time
}

func newWindow(st *stack) *window {
	return &window{st: st, devs: make([]devCounters, len(st.devices)), d0: make([]devCounters, len(st.devices))}
}

func (w *window) open() {
	for i, d := range w.st.devices {
		w.d0[i] = readDev(d)
	}
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
}

func (w *window) shut() {
	w.wallNs += time.Since(w.t0).Nanoseconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.mallocs[w.cur] += m.Mallocs - w.m0.Mallocs
	for i, d := range w.st.devices {
		w.devs[i].addDelta(readDev(d), w.d0[i])
	}
}

// tracedPass is one repetition of the traced run, and after
// keepFastest the fastest of several.
type tracedPass struct {
	spans []span
	win   *window
	// hitRate and epochs cover the classify loop.
	hitRate float64
	epochs  uint64
	// updateStart is the index of the update phase's first span; the
	// counters below cover that phase.
	updateStart   int
	updateOps     int
	updateEntries int
	updateMallocs uint64
	updateEpochs  uint64
	s0, s1        core.Stats
	// searchesPerLookup is per leaf device, over the classify loop.
	searchesPerLookup []float64
	// plainNs is the wall time of the same classify loop with nothing
	// recorded.
	plainNs int64
	rungs   map[string]float64
	tally   tally
}

// tracedResult is what the traced run and its replay produced.
type tracedResult struct {
	Layer map[string]float64
	Tally tally
	Spans []span
	// Ladder is the reconcile table.
	Ladder []ladderRow
}

// runTraced is the per-layer run: z.TracedReps repetitions, each a fresh
// stack driven by this one goroutine through Engine.ProcessSync over
// the same trace and update schedule as the timed run, so every count
// repeats exactly; spans are recorded from outside, around the calls
// into each layer, and each span keeps its shortest repetition.
// e2eNsPerPkt is the timed run's time per packet over its quiet slices,
// which the ladder is set against; timed supplies the call counts.
func runTraced(f *fixture, z sizing, timed classifyResult, e2eNsPerPkt float64) (tracedResult, error) {
	var p *tracedPass
	for rep := 0; rep < z.TracedReps; rep++ {
		q, err := tracedOnce(f, z)
		if err != nil {
			return tracedResult{}, err
		}
		if p == nil {
			p = q
		} else if err := p.keepFastest(q); err != nil {
			return tracedResult{}, err
		}
	}
	return p.result(f.w, timed, e2eNsPerPkt), nil
}

// keepFastest folds another repetition into p: every span, the two
// loop times and every rung keep the shorter reading. Counts must be
// the same in both.
func (p *tracedPass) keepFastest(q *tracedPass) error {
	if len(p.spans) != len(q.spans) || p.hitRate != q.hitRate || p.epochs != q.epochs {
		return fmt.Errorf("traced run does not repeat: %d spans, hit rate %v, %d epochs, then %d, %v, %d",
			len(p.spans), p.hitRate, p.epochs, len(q.spans), q.hitRate, q.epochs)
	}
	for i := range p.spans {
		a, b := &p.spans[i], &q.spans[i]
		if a.Name != b.Name || a.ID != b.ID || a.N != b.N {
			return fmt.Errorf("traced run does not repeat: span %d is %s/%d/%d, then %s/%d/%d", i, a.Name, a.ID, a.N, b.Name, b.ID, b.N)
		}
		a.QuietNs = min(a.QuietNs, b.QuietNs)
	}
	p.win.wallNs = min(p.win.wallNs, q.win.wallNs)
	p.plainNs = min(p.plainNs, q.plainNs)
	for k, v := range q.rungs {
		p.rungs[k] = min(p.rungs[k], v)
	}
	p.tally.add(q.tally.Attempted, q.tally.Failed, "a later traced repetition")
	return nil
}

// tracedOnce is one repetition: the classify loop, the replay of its
// miss batches against the layers below the backend, the traced update
// phase, the same classify loop with nothing recorded, and the rungs.
func tracedOnce(f *fixture, z sizing) (*tracedPass, error) {
	w := f.w
	st, err := newStack(w, f.rs)
	if err != nil {
		return nil, err
	}
	defer st.close()
	m, err := newMirror(f.rs)
	if err != nil {
		return nil, err
	}

	bursts := z.Traced / burstSize
	inline := w.inlineOps(z.Traced)
	p := &tracedPass{win: newWindow(st), updateOps: min(tracedUpdateOps, z.UpdateOps)}
	spanCap := 2*bursts + inline + p.updateOps
	if w.Sharded {
		spanCap += (2 + st.cluster.NumShards()) * bursts // replayed: table 0, fan-out, every shard
	}
	rec := &recorder{base: time.Now(), spans: make([]span, 0, spanCap)}
	tb := &tracedBackend{inner: st.backend, rec: rec, name: backendSpan(w),
		hdrs: make([]rules.Header, 0, z.Traced), ends: make([]int, 0, bursts), bursts: make([]int, 0, bursts)}
	eng := ingress.New(ingress.Config{Workers: 1, RingSize: ringSize, Burst: burstSize,
		FlowCacheSize: cacheSize, Backend: tb})

	// Classify loop. Results are copied out burst by burst and checked
	// against the mirror before each update burst and at the end.
	got := make([]ingress.Result, z.Traced)
	checked := 0
	wrong, updateErrs := 0, 0
	verify := func(upto int) {
		for ; checked < upto; checked++ {
			if !m.agrees(f.trace[checked%len(f.trace)], got[checked]) {
				wrong++
			}
		}
	}
	win := p.win
	epoch0 := st.backend.Epoch()
	win.open()
	for sent := 0; sent < z.Traced; sent += burstSize {
		if k := sent * allocWindows / z.Traced; k != win.cur {
			win.shut()
			win.cur = k
			win.open()
		}
		if w.ChurnEvery != 0 && sent != 0 && sent%w.ChurnEvery == 0 {
			win.shut()
			verify(sent)
			for i := 0; i < churnOps; i++ {
				updateErrs += tracedUpdate(rec, st, f, m)
			}
			win.open()
		}
		pos := sent % len(f.trace)
		burst := f.trace[pos : pos+burstSize]
		tb.burst = sent / burstSize
		start := rec.now()
		res := eng.ProcessSync(0, burst)
		rec.add(span{ID: tb.burst, Name: spanIngress, StartNs: start, EndNs: rec.now(), N: len(burst)})
		copy(got[sent:], res)
	}
	win.shut()
	verify(z.Traced)
	p.hitRate = eng.Snapshot().HitRate()
	p.epochs = st.backend.Epoch() - epoch0
	p.tally.add(z.Traced, wrong, "traced decisions vs swclass.Linear")
	p.tally.add(inline, updateErrs, "traced inline updates")
	for _, d := range win.devs {
		p.searchesPerLookup = append(p.searchesPerLookup, ratio(float64(d.searches), float64(d.lookups)))
	}

	// The table is still as the classify loop left it.
	if w.Sharded {
		replaySharded(rec, st, tb)
	}

	// Traced update phase, traffic idle: one update_op span per op.
	p.s0 = st.stats()
	uEpoch0 := st.backend.Epoch()
	for _, u := range f.updates[st.applied : st.applied+p.updateOps] {
		p.updateEntries += u.Rule.ExpansionCount()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	updateErrs = 0
	p.updateStart = len(rec.spans)
	for i := 0; i < p.updateOps; i++ {
		updateErrs += tracedUpdate(rec, st, f, m)
	}
	runtime.ReadMemStats(&m1)
	p.s1 = st.stats()
	p.updateMallocs = m1.Mallocs - m0.Mallocs
	p.updateEpochs = st.backend.Epoch() - uEpoch0
	p.tally.add(p.updateOps, updateErrs, "traced update phase ops")

	p.spans = rec.spans
	p.rungs = rungs(f)
	p.plainNs, err = plainPass(f, z)
	return p, err
}

// backendSpan is the name of the span around the slow-path backend: the
// layer the backend calls into.
func backendSpan(w *workload) string {
	if w.Sharded {
		return spanTableClassify
	}
	return spanDeviceLookup
}

// replaySharded sends every recorded miss batch again through the entry
// points below the pipeline: table 0's Device.LookupHeaderBatch, the
// cluster's, and each shard's, in that order.
func replaySharded(rec *recorder, st *stack, tb *tracedBackend) {
	table0, shards := st.devices[0], st.devices[1:]
	res := make([]core.LookupResult, 0, burstSize)
	from := 0
	for i, end := range tb.ends {
		hs, id := tb.hdrs[from:end], tb.bursts[i]
		from = end
		rec.timeCall(span{ID: id, Parent: spanTableClassify, Name: spanDeviceLookup, N: len(hs), Replay: true},
			func() { res = table0.LookupHeaderBatch(hs, res[:0]) })
		rec.timeCall(span{ID: id, Parent: spanTableClassify, Name: spanFanout, N: len(hs), Replay: true},
			func() { res = st.cluster.LookupHeaderBatch(hs, res[:0]) })
		for _, d := range shards {
			rec.timeCall(span{ID: id, Parent: spanFanout, Name: spanShardKernel, N: len(hs), Replay: true},
				func() { res = d.LookupHeaderBatch(hs, res[:0]) })
		}
	}
}

// result derives every traced per-layer metric and the reconcile table
// from the fastest pass.
func (p *tracedPass) result(w *workload, timed classifyResult, e2eNsPerPkt float64) tracedResult {
	rec := &recorder{spans: p.spans}
	L := map[string]float64{}
	for k, v := range p.rungs {
		L[k] = v
	}
	name := backendSpan(w)
	ingressNs, packets, bursts := rec.total(spanIngress, false)
	slowNs, misses, calls := rec.total(name, false)
	pk, ms := float64(packets), float64(misses)
	L["ingress.traced_hit_rate"] = p.hitRate
	L["ingress.self_ns_per_pkt"] = ratio(float64(ingressNs-slowNs), pk)
	L["ingress.slowpath_ns_per_miss"] = ratio(float64(slowNs), ms)
	L["ingress.miss_batch_mean"] = ratio(ms, float64(calls))
	L["ingress.misses_per_epoch"] = ms / float64(p.epochs+1)
	// The median window: the pooled scratch every layer builds once per
	// P, whenever this goroutine first lands there, is in one or two.
	perWindow := make([]float64, allocWindows)
	for k, n := range p.win.mallocs {
		perWindow[k] = ratio(float64(n), float64(bursts)/allocWindows)
	}
	L["ingress.allocs_per_burst"] = median(perWindow)

	var updNs int64
	for _, s := range p.spans[p.updateStart:] {
		updNs += s.QuietNs
	}
	ops := float64(p.updateOps)
	L["core.update_ns_per_op"] = ratio(float64(updNs), ops)
	L["core.update_ns_per_entry"] = ratio(float64(updNs), float64(p.updateEntries))
	L["core.update_allocs_per_op"] = ratio(float64(p.updateMallocs), ops)
	L["core.epochs_per_update"] = ratio(float64(p.updateEpochs), ops)
	L["model.update_cycles_per_op"] = ratio(float64(p.s1.UpdateCycles-p.s0.UpdateCycles), ops)
	ins := float64(p.s1.DirectInserts + p.s1.ReallocInserts - p.s0.DirectInserts - p.s0.ReallocInserts)
	L["model.realloc_insert_share"] = ratio(float64(p.s1.ReallocInserts-p.s0.ReallocInserts), ins)

	var all devCounters
	for _, d := range p.win.devs {
		all.addDelta(d, devCounters{})
	}
	lookups := float64(all.lookups)
	L["sram.searches_per_lookup"] = ratio(float64(all.searches), lookups)
	L["model.lookup_cycles_per_lookup"] = ratio(float64(all.lookupCycles), lookups)
	L["model.match_energy_fj_per_lookup"] = ratio(all.matchEnergyFJ, lookups)

	blocking := blockingPath{lookups: 1, searches: L["sram.searches_per_lookup"], deviceNs: L["ingress.slowpath_ns_per_miss"]}
	L["core.lookup_ns"] = L["ingress.slowpath_ns_per_miss"]
	if w.Sharded {
		blocking = p.shardedMetrics(rec, L, w.Procs == 1)
	}
	L["core.self_ns_per_lookup"] = L["core.lookup_ns"] - L["sram.searches_per_lookup"]*L["sram.search_ns"] - L["rules.encode_header_ns"]
	L["trace.overhead_share"] = ratio(float64(p.win.wallNs-p.plainNs), float64(p.plainNs))

	out := tracedResult{Layer: L, Tally: p.tally, Spans: p.spans}
	out.Ladder, L["reconcile.unexplained_share"] = reconcile(L, timed, e2eNsPerPkt, blocking, w.Procs == 1)
	return out
}

// shardedMetrics derives the flowtable and cluster metrics from the
// replayed spans, and what one miss waits for below the pipeline: the
// slowest shard of its round, or, when the workload runs on one P
// (serial), every shard, one after the other.
func (p *tracedPass) shardedMetrics(rec *recorder, L map[string]float64, serial bool) blockingPath {
	var replayed []span
	for _, s := range p.spans {
		if s.Replay {
			replayed = append(replayed, s)
		}
	}
	shards := len(p.searchesPerLookup) - 1
	shardNs := make([]int64, shards)
	var t0Ns, fanNs, maxNs, sumNs int64
	for b := 0; b+2+shards <= len(replayed); b += 2 + shards {
		t0Ns += replayed[b].QuietNs
		fanNs += replayed[b+1].QuietNs
		var worst int64
		for s, sp := range replayed[b+2 : b+2+shards] {
			shardNs[s] += sp.QuietNs
			sumNs += sp.QuietNs
			worst = max(worst, sp.QuietNs)
		}
		maxNs += worst
	}
	slowest := 0
	for s := range shardNs {
		if shardNs[s] > shardNs[slowest] {
			slowest = s
		}
	}
	// What the rounds waited for in the shards, and how many lookups and
	// searches that is per miss.
	waitNs, lookups, searches := maxNs, 2.0, p.searchesPerLookup[0]+p.searchesPerLookup[1+slowest]
	if serial {
		waitNs, lookups, searches = sumNs, float64(1+shards), 0
		for _, n := range p.searchesPerLookup {
			searches += n
		}
	}
	overheadNs := fanNs - waitNs
	tableNs, misses, batches := rec.total(spanTableClassify, false)
	ms := float64(misses)
	L["flowtable.classify_ns_per_pkt"] = ratio(float64(tableNs), ms)
	L["flowtable.self_ns_per_pkt"] = ratio(float64(tableNs-t0Ns-fanNs), ms)
	L["cluster.lookup_ns_per_pkt"] = ratio(float64(fanNs), ms)
	L["cluster.fanout_overhead_ns_per_batch"] = ratio(float64(overheadNs), float64(batches))
	L["cluster.shard_imbalance"] = ratio(float64(maxNs), float64(sumNs)/float64(shards))
	// Every device saw every miss once in the loop and once in replay.
	L["core.lookup_ns"] = ratio(float64(t0Ns+sumNs), ms*float64(1+shards))
	return blockingPath{
		lookups:          lookups,
		searches:         searches,
		deviceNs:         ratio(float64(t0Ns+waitNs), ms),
		flowtableSelfNs:  L["flowtable.self_ns_per_pkt"],
		fanoutOverheadNs: ratio(float64(overheadNs), ms),
	}
}

// plainPass is the traced run's classify loop with nothing recorded:
// a fresh stack, the same bursts through ProcessSync, the same update
// schedule. It returns the wall time of the bursts alone, which the
// traced loop's is set against for trace.overhead_share.
func plainPass(f *fixture, z sizing) (int64, error) {
	st, err := newStack(f.w, f.rs)
	if err != nil {
		return 0, err
	}
	defer st.close()
	eng := ingress.New(ingress.Config{Workers: 1, RingSize: ringSize, Burst: burstSize,
		FlowCacheSize: cacheSize, Backend: st.backend})
	var updatesNs int64
	start := time.Now()
	for sent := 0; sent < z.Traced; sent += burstSize {
		if f.w.ChurnEvery != 0 && sent != 0 && sent%f.w.ChurnEvery == 0 {
			t := time.Now()
			for i := 0; i < churnOps; i++ {
				if err := st.applyNext(f.updates); err != nil {
					return 0, err
				}
			}
			updatesNs += time.Since(t).Nanoseconds()
		}
		pos := sent % len(f.trace)
		eng.ProcessSync(0, f.trace[pos:pos+burstSize])
	}
	return time.Since(start).Nanoseconds() - updatesNs, nil
}

// tracedUpdate applies the next op to the stack under an update_op
// span and to the mirror, returning 1 if either refused it.
func tracedUpdate(rec *recorder, st *stack, f *fixture, m *mirror) (failed int) {
	u := f.updates[st.applied]
	start := rec.now()
	err := st.applyNext(f.updates)
	rec.add(span{ID: st.applied - 1, Name: spanUpdateOp, StartNs: start, EndNs: rec.now(), N: u.Rule.ExpansionCount()})
	if err != nil || m.apply(u) != nil {
		return 1
	}
	return 0
}

// blockingPath is what one slow-path miss waits for below the backend:
// the device lookups that run one after another (parallel shards count
// once, by the slowest; shards that share one P all count), their
// kernel searches and their time.
type blockingPath struct {
	lookups  float64
	searches float64
	deviceNs float64
	// flowtableSelfNs and fanoutOverheadNs are per miss; zero when the
	// workload has neither layer.
	flowtableSelfNs  float64
	fanoutOverheadNs float64
}

// ladderRow is one rung of the reconcile table: a layer's self time
// per call, how many such calls one packet costs, and the product.
type ladderRow struct {
	Side     string  `json:"side"` // "source" or "worker": the two goroutines overlap
	Layer    string  `json:"layer"`
	Rung     string  `json:"rung"`
	SelfNs   float64 `json:"self_ns"`
	PerPkt   float64 `json:"calls_per_pkt"`
	NsPerPkt float64 `json:"ns_per_pkt"`
}

// reconcile lays the layers' self times, weighted by the timed run's
// call counts, against the end-to-end time per packet. The source and
// the worker are two goroutines of one pipeline, so the slower side
// sets the pace and the explained time is the larger of the two sums;
// on one P (serial) they take turns and it is both sums.
func reconcile(L map[string]float64, timed classifyResult, e2eNsPerPkt float64, b blockingPath, serial bool) ([]ladderRow, float64) {
	missRate := 1 - timed.HitRate
	var inlineNs float64
	for _, ns := range timed.InlineNs {
		inlineNs += float64(ns)
	}
	encodeNs := b.lookups * L["rules.encode_header_ns"]
	kernelNs := b.searches * L["sram.search_ns"]
	rows := []ladderRow{
		{Side: "source", Layer: "ingress", Rung: "dispatch", SelfNs: L["ingress.dispatch_ns_per_pkt"], PerPkt: 1},
		{Side: "source", Layer: "core", Rung: spanUpdateOp, SelfNs: ratio(inlineNs, float64(len(timed.InlineNs))),
			PerPkt: ratio(float64(len(timed.InlineNs)), float64(timed.Offered))},
		{Side: "worker", Layer: "ingress", Rung: "ring", SelfNs: L["ingress.ring_ns_per_pkt"], PerPkt: 1},
		{Side: "worker", Layer: "ingress", Rung: spanIngress, SelfNs: L["ingress.self_ns_per_pkt"], PerPkt: 1},
		{Side: "worker", Layer: "flowtable", Rung: spanTableClassify, SelfNs: b.flowtableSelfNs, PerPkt: missRate},
		{Side: "worker", Layer: "cluster", Rung: spanFanout, SelfNs: b.fanoutOverheadNs, PerPkt: missRate},
		{Side: "worker", Layer: "core", Rung: spanDeviceLookup, SelfNs: (b.deviceNs - encodeNs - kernelNs) / b.lookups, PerPkt: missRate * b.lookups},
		{Side: "worker", Layer: "rules", Rung: "encode_header", SelfNs: L["rules.encode_header_ns"], PerPkt: missRate * b.lookups},
		{Side: "worker", Layer: "sram", Rung: spanSRAMKernel, SelfNs: L["sram.search_ns"], PerPkt: missRate * b.searches},
	}
	side := map[string]float64{}
	for i := range rows {
		rows[i].NsPerPkt = rows[i].SelfNs * rows[i].PerPkt
		side[rows[i].Side] += rows[i].NsPerPkt
	}
	explained := max(side["source"], side["worker"])
	if serial {
		explained = side["source"] + side["worker"]
	}
	return rows, ratio(e2eNsPerPkt-explained, e2eNsPerPkt)
}

// writeSpans writes the traced run's spans to
// <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return os.WriteFile(path, data, 0o644)
}
