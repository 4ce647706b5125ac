package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
)

// TestSamplerGate drives the tracer's 1-in-N gate (a telemetry.Sampler)
// through Start, the one place the hot path meets it.
func TestSamplerGate(t *testing.T) {
	tt := NewTracer(4)
	for i := 0; i < 100; i++ {
		if tt.Start("x") != nil {
			t.Fatal("tracer with sampling off started a trace")
		}
	}
	tt.SetSampleEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if tt.Start("x") != nil {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 tracer: started %d traces in 400 requests, want 100", hits)
	}
	tt.SetSampleEvery(1)
	if tt.Start("x") == nil || tt.SampleEvery() != 1 {
		t.Fatal("every=1 tracer must start a trace per request")
	}
}

func TestNilSafety(t *testing.T) {
	var tt *Tracer
	tr := tt.Start("x")
	if tr != nil {
		t.Fatal("nil tracer returned a trace")
	}
	tt.Finish(tr)
	tt.SetSampleEvery(1)
	if tt.SampleEvery() != 0 || tt.Total() != 0 || tt.Cap() != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
	if tt.Snapshot() != nil || tt.Get(1) != nil {
		t.Fatal("nil tracer snapshot not empty")
	}
	var nilTrace *Trace
	nilTrace.Add(Span{})
	nilTrace.Span(StageRequest, -1, -1, -1, -1, 0, 0)
	nilTrace.SetFocus(3)
	if nilTrace.Focus() != -1 || nilTrace.SpanCount() != 0 {
		t.Fatal("nil trace accessors wrong")
	}
}

// TestUpdateTraceNilSafety: a device with no tracer attached calls the
// update-trace API on nil receivers; every call must be inert.
func TestUpdateTraceNilSafety(t *testing.T) {
	var tt *Tracer
	if tt.StartUpdate("insert", 0, -1, -1) != nil {
		t.Fatal("nil tracer returned an update trace")
	}
	tt.FinishUpdate(nil, 3, nil)
	var nilTrace *Trace
	nilTrace.Step(StageEntryWrite, 0, 0, 3)
	nilTrace.NextEntry(1)
	if nilTrace.SpanCount() != 0 || tt.Total() != 0 || tt.Snapshot() != nil {
		t.Fatal("nil update trace not inert")
	}
}

// TestUpdateTraceRing drives update traces through the sampler and the
// ring they share with lookups: the gate, eviction of the oldest, step
// spans tiling the trace with their cycles summing to the request's,
// and the outcome recorded verbatim.
func TestUpdateTraceRing(t *testing.T) {
	tt := NewTracer(4)
	if tt.StartUpdate("insert", 1, -1, -1) != nil {
		t.Fatal("tracer with sampling off started an update trace")
	}
	tt.SetSampleEvery(1)
	for i := 0; i < 6; i++ {
		tr := tt.StartUpdate("insert", i, 2, 1)
		if tr == nil {
			t.Fatalf("update %d not sampled at every=1", i)
		}
		tr.Step(StageSubtableSelect, 0, -1, 0)
		tr.Step(StageEntryWrite, 0, i, 3)
		tr.Step(StagePublish, -1, -1, 0)
		tt.FinishUpdate(tr, 3, nil)
	}
	snap := tt.Snapshot()
	if tt.Total() != 6 || len(snap) != 4 {
		t.Fatalf("total %d, retained %d: want 6 and 4 (cap)", tt.Total(), len(snap))
	}
	for i, tr := range snap {
		if tr.RuleID != 2+i || tr.Kind != "insert" {
			t.Fatalf("snapshot[%d] = %s rule %d, want insert rule %d (oldest-first suffix)", i, tr.Kind, tr.RuleID, 2+i)
		}
		if tr.SpanCycles() != tr.Cycles || tr.Cycles != 3 {
			t.Fatalf("trace %d: step cycles %d, total %d, want 3", i, tr.SpanCycles(), tr.Cycles)
		}
		end := tr.StartNs
		for _, sp := range tr.Spans {
			if sp.StartNs != end || sp.Table != 2 || sp.Shard != 1 {
				t.Fatalf("trace %d: step %+v does not continue at %d with labels 2/1", i, sp, end)
			}
			end = sp.End()
		}
		if end > tr.StartNs+tr.DurNs {
			t.Fatalf("trace %d: steps end at %d, after the trace (%d)", i, end, tr.StartNs+tr.DurNs)
		}
	}

	tr := tt.StartUpdate("delete", 99, -1, -1)
	tt.FinishUpdate(tr, 0, errors.New("not present"))
	last := tt.Get(tr.ID)
	if last.Err != "not present" || last.Kind != "delete" || last.RuleID != 99 {
		t.Fatalf("error trace mangled: %+v", last)
	}
}

// TestTraceEntryGrouping: steps carry the expansion-entry ordinal in
// Key, grouping one rule's entries; publish covers the whole request.
func TestTraceEntryGrouping(t *testing.T) {
	tt := NewTracer(2)
	tt.SetSampleEvery(1)
	tr := tt.StartUpdate("insert", 7, -1, -1)
	tr.Step(StageEntryWrite, 0, 0, 3)
	tr.NextEntry(1)
	tr.Step(StageEntryWrite, 0, 1, 3)
	tr.Step(StagePublish, -1, -1, 0)
	tt.FinishUpdate(tr, 6, nil)
	got := tt.Get(tr.ID).Spans
	if got[0].Key != 0 || got[1].Key != 1 || got[2].Key != -1 {
		t.Fatalf("entry ordinals wrong: %+v", got)
	}
}

func TestTracerRing(t *testing.T) {
	tt := NewTracer(4)
	tt.SetSampleEvery(1)
	var ids []uint64
	for i := 0; i < 6; i++ {
		tr := tt.Start("classify")
		if tr == nil {
			t.Fatal("every=1 tracer returned nil")
		}
		tr.Span(StageDeviceLookup, -1, 0, 2, 0, tr.StartNs, 5)
		tt.Finish(tr)
		ids = append(ids, tr.ID)
	}
	if tt.Total() != 6 {
		t.Fatalf("total = %d, want 6", tt.Total())
	}
	snap := tt.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d traces, want 4 (ring capacity)", len(snap))
	}
	// Oldest two evicted.
	if tt.Get(ids[0]) != nil || tt.Get(ids[1]) != nil {
		t.Fatal("evicted traces still retrievable")
	}
	got := tt.Get(ids[5])
	if got == nil || len(got.Spans) != 1 || got.Spans[0].Subtable != 2 {
		t.Fatalf("Get(latest) = %+v", got)
	}
	// Snapshot is a copy: mutating it must not affect the ring.
	got.Spans[0].Subtable = 99
	if tt.Get(ids[5]).Spans[0].Subtable != 2 {
		t.Fatal("Get returned aliased span storage")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := &Trace{ID: 1}
	for i := 0; i < maxSpans+10; i++ {
		tr.Add(Span{Stage: StageDeviceLookup})
	}
	if tr.SpanCount() != maxSpans {
		t.Fatalf("span count %d, want cap %d", tr.SpanCount(), maxSpans)
	}
	if tr.Dropped != 10 {
		t.Fatalf("dropped %d, want 10", tr.Dropped)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		if got := ParseTraceID(TraceID(id)); got != id {
			t.Fatalf("round trip %d -> %q -> %d", id, TraceID(id), got)
		}
	}
	if ParseTraceID("zz") != 0 || ParseTraceID("") != 0 {
		t.Fatal("malformed IDs should parse to 0")
	}
}

// TestSelfTimes verifies the containment-based self-time computation
// on a cluster walk: the dispatch span is debited for the shard kernels
// it runs one after another, and a shard kernel for the sram searches
// inside it, leaving each span only its uncovered remainder. For a
// well-nested trace the self times then sum to the root span's
// duration: no time is counted twice, none is lost.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Stage: StageFanoutDispatch, Shard: -1, StartNs: 0, DurNs: 100},
		{Stage: StageShardKernel, Shard: 0, StartNs: 5, DurNs: 45},
		{Stage: StageSRAMKernel, Shard: 0, Subtable: 0, StartNs: 10, DurNs: 10},
		{Stage: StageSRAMKernel, Shard: 0, Subtable: 1, StartNs: 25, DurNs: 20},
		{Stage: StageShardKernel, Shard: 1, StartNs: 50, DurNs: 45},
	}
	self := selfTimes(spans)
	if self[0] != 10 {
		t.Fatalf("dispatch self = %d, want 100-45-45=10 (sequential shard spans are its children)", self[0])
	}
	if self[1] != 15 {
		t.Fatalf("shard0 kernel self = %d, want 45-10-20=15", self[1])
	}
	if self[2] != 10 || self[3] != 20 {
		t.Fatalf("sram self = %d,%d, want 10,20", self[2], self[3])
	}
	if self[4] != 45 {
		t.Fatalf("shard1 kernel self = %d, want 45", self[4])
	}

	// The same walk under a request, a table wave and an arbiter merge.
	nested := append([]Span{
		{Stage: StageRequest, Shard: -1, StartNs: 0, DurNs: 200},
		{Stage: StageTableClassify, Shard: -1, StartNs: 0, DurNs: 150},
		{Stage: StageArbiterMerge, Shard: -1, StartNs: 100, DurNs: 30},
		{Stage: StageDeviceLookup, Shard: -1, StartNs: 160, DurNs: 25},
	}, spans...)
	var sum uint64
	for _, ns := range selfTimes(nested) {
		sum += ns
	}
	if sum != nested[0].DurNs {
		t.Fatalf("self times sum to %d, want the root's %d", sum, nested[0].DurNs)
	}
}

func TestBlameReport(t *testing.T) {
	tt := NewTracer(8)
	tt.SetSampleEvery(1)
	mk := func(dur uint64, shard int) {
		tr := tt.Start("classify")
		tr.Add(Span{Stage: StageFanoutDispatch, Shard: -1, Subtable: -1, Key: -1, StartNs: tr.StartNs, DurNs: dur})
		tr.Add(Span{Stage: StageShardKernel, Shard: shard, Subtable: -1, Key: -1, StartNs: tr.StartNs + 1, DurNs: dur - 2})
		tr.Add(Span{Stage: StageSRAMKernel, Shard: shard, Subtable: 7, Key: 0, StartNs: tr.StartNs + 2, DurNs: dur / 2})
		tt.Finish(tr)
		tr.DurNs = dur // pin: Finish stamps real elapsed time, the test needs known durations
	}
	mk(1000, 0)
	mk(4000, 1)
	mk(2000, 1)

	rep := tt.Blame(2, 0)
	if rep.Retained != 3 || rep.Examined != 2 {
		t.Fatalf("retained/examined = %d/%d, want 3/2", rep.Retained, rep.Examined)
	}
	if len(rep.Stages) == 0 || rep.Stages[0].SelfNs == 0 {
		t.Fatalf("stage blame empty: %+v", rep.Stages)
	}
	var share float64
	for _, s := range rep.Stages {
		share += s.ShareSelf
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("stage shares sum to %f, want 1", share)
	}
	if len(rep.Shards) != 1 || rep.Shards[0].Shard != 1 {
		t.Fatalf("shard blame should cover only shard 1 (the slow 2): %+v", rep.Shards)
	}
	if len(rep.Subtables) != 1 || rep.Subtables[0].Subtable != 7 {
		t.Fatalf("subtable blame: %+v", rep.Subtables)
	}
	// min_ns filter.
	rep = tt.Blame(0, 3000)
	if rep.Examined != 1 {
		t.Fatalf("min_ns=3000 examined %d, want 1", rep.Examined)
	}
}

func TestBlameHandlerParams(t *testing.T) {
	tt := NewTracer(4)
	h := tt.BlameHandler()
	for _, bad := range []string{"?slowest=x", "?slowest=-1", "?min_ns=nope"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/blame"+bad, nil))
		if rec.Code != 400 {
			t.Fatalf("%s: code %d, want 400", bad, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/blame?slowest=5&min_ns=10", nil))
	if rec.Code != 200 {
		t.Fatalf("code %d, want 200", rec.Code)
	}
	var rep BlameReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("blame response not JSON: %v", err)
	}
	if rep.Slowest != 5 || rep.MinNs != 10 {
		t.Fatalf("params not echoed: %+v", rep)
	}
}

// TestTimelineFormat checks the Chrome trace-event invariants the
// viewers rely on: a traceEvents array, "X" events with µs timestamps,
// metadata thread names, and spans on per-layer lanes.
func TestTimelineFormat(t *testing.T) {
	tt := NewTracer(4)
	tt.SetSampleEvery(1)
	tr := tt.Start("classify")
	tr.Add(Span{Stage: StageFanoutDispatch, Shard: -1, Subtable: -1, Key: -1, StartNs: tr.StartNs, DurNs: 3000})
	tr.Add(Span{Stage: StageShardKernel, Shard: 2, Subtable: -1, Key: -1, StartNs: tr.StartNs + 100, DurNs: 2500, Cycles: 9})
	tt.Finish(tr)

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tt.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("timeline not JSON: %v\n%s", err, buf.String())
	}
	var xEvents, metaNames int
	lanes := map[float64]bool{}
	for _, e := range f.TraceEvents {
		switch e["ph"] {
		case "X":
			xEvents++
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("X event without numeric ts: %v", e)
			}
			lanes[e["tid"].(float64)] = true
		case "M":
			metaNames++
		}
	}
	if xEvents != 3 { // root + 2 spans
		t.Fatalf("got %d X events, want 3", xEvents)
	}
	if metaNames == 0 {
		t.Fatal("no metadata name events")
	}
	if !lanes[float64(laneShard0+2)] {
		t.Fatalf("shard 2 span not on its own lane: lanes %v", lanes)
	}
	if !lanes[laneCluster] {
		t.Fatalf("fan-out span not on the cluster lane: lanes %v", lanes)
	}

	// Handler: ?trace= selects one, unknown id 404s.
	h := tt.TimelineHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?trace="+TraceID(tr.ID), nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte("traceEvents")) {
		t.Fatalf("timeline handler: code %d body %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?trace=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace id: code %d, want 404", rec.Code)
	}
}

func TestStageStrings(t *testing.T) {
	for s := Stage(0); int(s) < StageCount; s++ {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Fatalf("stage %d has no symbolic name: %q", s, s.String())
		}
	}
	if Stage(200).String() != "Stage(200)" {
		t.Fatal("out-of-range stage should render numerically")
	}
	b, err := StageSRAMKernel.MarshalText()
	if err != nil || string(b) != "sram_kernel" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
}

// TestUpdateStageStrings: the update stages keep the step names
// /debug/trace has always used.
func TestUpdateStageStrings(t *testing.T) {
	for s, want := range map[Stage]string{
		StageSubtableSelect: "subtable_select", StageFreshSubtable: "fresh_subtable",
		StageGlobalUpdate: "global_update", StageEntryWrite: "entry_write",
		StageEvictLocate: "evict_locate", StageEvictionHop: "eviction_hop",
		StageMaxRederive: "max_rederive", StageDelete: "delete", StagePublish: "publish",
	} {
		if s.String() != want {
			t.Fatalf("stage %d = %q, want %q", s, s, want)
		}
	}
}
