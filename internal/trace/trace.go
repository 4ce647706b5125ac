// Package trace is CATCAM's request-tracing layer: a cheap,
// cycle-stamped span recorder whose trace context follows one lookup
// end-to-end through every layer of the system — the serve churn loop's
// batched classify call, flowtable's per-table waves, the cluster's
// shard walk (dispatch, per-shard kernel, arbiter merge) and, inside one
// designated "focus" key, the per-subtable SRAM kernel searches.
//
// Where internal/telemetry answers "how slow is p999" and
// internal/flightrec answers "is the datapath still correct", this
// package answers "*where* does p999 live": each span carries a stage
// tag, its shard/subtable/table attribution, a monotonic nanosecond
// stamp pair for host time and a modeled cycle count where the layer
// tracks one. Three consumers are built on top:
//
//   - histogram exemplars (internal/telemetry): a sampled observation
//     carries its trace ID, so a p999 bucket in /metrics.json links to
//     a retrievable trace in this package's ring;
//   - /debug/timeline (timeline.go): Chrome trace-event JSON of the
//     span trees, loadable directly in Perfetto / chrome://tracing;
//   - /debug/blame (blame.go): tail-latency attribution — the slowest
//     traces decomposed by stage and by shard/subtable using
//     self-time (span duration minus nested children).
//
// The design rule carried over from flightrec: with sampling off the
// instrumented hot paths pay one atomic load (Tracer.Start) or one
// pointer test (nil *Trace) and never allocate — the PR-2/PR-5
// zero-allocation classify guarantee is preserved and proven by the
// hotpath analyzer plus AllocsPerRun guards.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"catcam/internal/telemetry"
)

// epoch anchors the package's monotonic clock; all span stamps are
// nanoseconds since process start, so stamps from different layers of
// one request compose into one timeline.
var epoch = time.Now()

// Nanos returns a monotonic nanosecond stamp (time since process
// start). One time.Since call; on the hotpath analyzer's safelist and
// allocation-free.
func Nanos() uint64 { return uint64(time.Since(epoch)) }

// Stage tags what part of the request path a span covers.
type Stage uint8

// Stages, roughly in the order one lookup traverses them.
const (
	// StageRequest is the root span: one batched classify request as
	// issued by the caller (the serve churn loop, a test driver).
	StageRequest Stage = iota
	// StageTableClassify is one flowtable wave: every packet parked at
	// one table classified in a single batched backend call.
	StageTableClassify
	// StageFanoutDispatch covers the cluster's walk over its shards:
	// every shard's batched lookup, run in turn in the caller's
	// goroutine.
	StageFanoutDispatch
	// StageShardKernel is one shard's whole batched device lookup,
	// nested inside the walk's fanout_dispatch span.
	StageShardKernel
	// StageArbiterMerge is the cluster arbiter reducing per-shard
	// winners to one result per header.
	StageArbiterMerge
	// StageDeviceLookup is one key's lookup inside a device: match
	// broadcast, global decision, local decision. Subtable carries the
	// winning subtable (-1 on miss).
	StageDeviceLookup
	// StageSRAMKernel is one subtable's bit-sliced match-kernel search
	// for the trace's focus key.
	StageSRAMKernel
	// StageIngress is one ingress worker's burst: ring drain, flow-cache
	// scan, and (for the cache misses) the slow-path classify call whose
	// own spans nest beneath it. Shard carries the worker ID.
	StageIngress
)

var stageNames = [...]string{
	StageRequest:        "request",
	StageTableClassify:  "table_classify",
	StageFanoutDispatch: "fanout_dispatch",
	StageShardKernel:    "shard_kernel",
	StageArbiterMerge:   "arbiter_merge",
	StageDeviceLookup:   "device_lookup",
	StageSRAMKernel:     "sram_kernel",
	StageIngress:        "ingress",
}

// StageCount sizes per-stage aggregation tables.
const StageCount = int(StageIngress) + 1

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// MarshalText renders the stage symbolically in JSON.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Span is one completed stage of a traced request. Attribution fields
// are -1 when the dimension does not apply at that stage.
type Span struct {
	Stage    Stage  `json:"stage"`
	Table    int    `json:"table"`
	Shard    int    `json:"shard"`
	Subtable int    `json:"subtable"`
	Key      int    `json:"key"` // batch key index; -1 for batch-level spans
	StartNs  uint64 `json:"start_ns"`
	DurNs    uint64 `json:"dur_ns"`
	Cycles   uint64 `json:"cycles"` // modeled cycles where the layer tracks them
}

// End returns the span's end stamp.
func (s Span) End() uint64 { return s.StartNs + s.DurNs }

// maxSpans bounds one trace's span count so a sampled huge batch over
// hundreds of subtables cannot grow without bound; spans beyond the cap
// are counted in Dropped.
const maxSpans = 2048

// Trace is one sampled request's span record. Span appends and export
// copies are internally locked, so a trace is safe to record into from
// any goroutine holding it and to copy out while it is being recorded.
// All methods are nil-receiver safe, so instrumented code guards with a
// single pointer test and an untraced request costs nothing.
type Trace struct {
	ID      uint64 `json:"id"`
	Kind    string `json:"kind"` // caller-chosen root label ("classify", "ingress", ...)
	StartNs uint64 `json:"start_ns"`
	DurNs   uint64 `json:"dur_ns"`
	Spans   []Span `json:"spans"`
	Dropped uint64 `json:"dropped,omitempty"`

	mu    sync.Mutex
	focus int
	seq   uint64 // publication sequence, stamped by the tracer's ring
}

// TraceID renders an ID the way exemplars and ?trace= spell it.
func TraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the hex form back; returns 0 on malformed input.
func ParseTraceID(s string) uint64 {
	var id uint64
	if _, err := fmt.Sscanf(s, "%x", &id); err != nil {
		return 0
	}
	return id
}

// Focus returns the batch key index whose per-subtable kernel searches
// this trace records in detail (0 by default: the first key of the
// batch). Nil-receiver safe (-1: no key is in focus).
func (t *Trace) Focus() int {
	if t == nil {
		return -1
	}
	return t.focus
}

// SetFocus selects the batch key index traced at SRAM-kernel depth.
func (t *Trace) SetFocus(key int) {
	if t == nil {
		return
	}
	t.focus = key
}

// Add records one completed span. Nil-receiver safe; concurrent callers
// serialize on the trace's own mutex — sampled-path only, never on an
// untraced request.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.Spans) >= maxSpans {
		t.Dropped++
	} else {
		t.Spans = append(t.Spans, s)
	}
	t.mu.Unlock()
}

// Span records a completed stage that began at startNs (a Nanos()
// stamp) and ends now. Shorthand over Add for wall-clock spans.
func (t *Trace) Span(stage Stage, table, shard, subtable, key int, startNs, cycles uint64) {
	if t == nil {
		return
	}
	t.Add(Span{Stage: stage, Table: table, Shard: shard, Subtable: subtable,
		Key: key, StartNs: startNs, DurNs: Nanos() - startNs, Cycles: cycles})
}

// SpanCount returns the number of recorded spans (lock-taken; callers
// are off the hot path).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Spans)
}

// snapshot returns a consistent copy of the trace for export.
func (t *Trace) snapshot() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{
		ID: t.ID, Kind: t.Kind, StartNs: t.StartNs, DurNs: t.DurNs,
		Spans: append([]Span(nil), t.Spans...), Dropped: t.Dropped,
		focus: t.focus,
	}
}

// Tracer samples requests and retains their completed traces in a
// bounded lock-free ring (oldest overwritten).
type Tracer struct {
	sampler telemetry.Sampler
	ring    *telemetry.Ring[Trace]
	ids     atomic.Uint64 // trace IDs ever issued
}

// NewTracer builds a tracer retaining up to capacity finished traces.
// Sampling starts disabled; call SetSampleEvery.
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: telemetry.NewRing(capacity, func(t *Trace) *uint64 { return &t.seq })}
}

// SetSampleEvery samples one trace per n requests (0 disables, 1
// traces everything). Nil-receiver safe.
func (tt *Tracer) SetSampleEvery(n uint64) {
	if tt == nil {
		return
	}
	tt.sampler.SetEvery(n)
}

// SampleEvery returns the sampling period.
func (tt *Tracer) SampleEvery() uint64 {
	if tt == nil {
		return 0
	}
	return tt.sampler.Every()
}

// Start begins a trace for one request, or returns nil when the
// request is not sampled — the single atomic gate the hot path pays.
// Nil-receiver safe.
func (tt *Tracer) Start(kind string) *Trace {
	if tt == nil || !tt.sampler.Hit() {
		return nil
	}
	return &Trace{ID: tt.ids.Add(1), Kind: kind, StartNs: Nanos()}
}

// Finish stamps the trace's total duration and publishes it into the
// ring. Nil-safe on both receiver and trace.
func (tt *Tracer) Finish(t *Trace) {
	if tt == nil || t == nil {
		return
	}
	t.DurNs = Nanos() - t.StartNs
	tt.ring.Publish(t)
}

// Total returns the number of traces ever published.
func (tt *Tracer) Total() uint64 {
	if tt == nil {
		return 0
	}
	return tt.ring.Total()
}

// Cap returns the ring capacity.
func (tt *Tracer) Cap() int {
	if tt == nil {
		return 0
	}
	return tt.ring.Cap()
}

// Snapshot returns consistent copies of the retained traces,
// oldest-published first.
func (tt *Tracer) Snapshot() []*Trace {
	if tt == nil {
		return nil
	}
	out := make([]*Trace, 0, tt.ring.Cap())
	tt.ring.Each(func(p *Trace) { out = append(out, p.snapshot()) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get retrieves a retained trace by ID (nil when evicted or unknown) —
// the exemplar → trace link.
func (tt *Tracer) Get(id uint64) (t *Trace) {
	if tt == nil {
		return nil
	}
	tt.ring.Each(func(p *Trace) {
		if p.ID == id {
			t = p.snapshot()
		}
	})
	return t
}
