package trace_test

import (
	"bytes"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// TestExemplarToSpanTree is the tentpole's end-to-end acceptance path:
// drive a slow (traced, cluster) lookup among a population of
// fast ones, then follow the latency histogram's p999 bucket exemplar
// — exactly as an operator would from /metrics.json — to the full
// retained span tree, and check the tree decomposes the request
// through every layer: the shard walk, per-shard kernels, per-key
// device lookups, focus-key SRAM kernel searches, arbiter merge.
func TestExemplarToSpanTree(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 4})
	c := cluster.New(cluster.Config{
		Shards: 4,
		Device: core.Config{Subtables: 16, SubtableCapacity: 64, KeyWidth: 160},
	})
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	hs := classbench.PacketTrace(rs, 64, 0.9, 9)

	tracer := trace.NewTracer(16)
	tracer.SetSampleEvery(1)
	reg := telemetry.NewRegistry()
	hist := reg.Histogram("catcam_serve_lookup_ns", "per-batch classify latency",
		telemetry.DefaultLatencyBuckets, nil)

	// A population of fast, untraced lookups (600ns) ...
	for i := 0; i < 500; i++ {
		hist.Observe(600)
	}
	// ... and one traced cluster batch, orders of magnitude slower.
	tr := tracer.Start("classify")
	if tr == nil {
		t.Fatal("sampling at 1 must trace the batch")
	}
	dst := c.LookupHeaderBatchTraced(tr, hs, nil)
	if len(dst) != len(hs) {
		t.Fatalf("classified %d of %d headers", len(dst), len(hs))
	}
	tracer.Finish(tr)
	hist.ObserveExemplar(tr.DurNs, tr.ID)
	if tr.DurNs <= 2048 {
		t.Fatalf("traced cluster batch took %dns; too fast to separate from the fast population", tr.DurNs)
	}

	// Operator's view: the JSON snapshot. Locate the bucket holding the
	// p999 observation the way a reader of /metrics.json would — walk
	// the cumulative counts to the p999 rank.
	snap := reg.Snapshot()
	hsnap, ok := snap.Histograms["catcam_serve_lookup_ns"]
	if !ok {
		t.Fatalf("histogram missing from snapshot")
	}
	rank := uint64(float64(hsnap.Count)*0.999) + 1
	var cum uint64
	p999Bucket := -1
	for i, n := range hsnap.Buckets {
		cum += n
		if cum >= rank {
			p999Bucket = i
			break
		}
	}
	if p999Bucket < 0 {
		t.Fatal("no p999 bucket?")
	}
	var exemplarID string
	for _, ex := range hsnap.Exemplars {
		if ex.Bucket == p999Bucket {
			exemplarID = ex.TraceID
		}
	}
	if exemplarID == "" {
		t.Fatalf("p999 bucket %d has no exemplar: %+v", p999Bucket, hsnap.Exemplars)
	}

	// Follow the exemplar to the retained trace.
	got := tracer.Get(trace.ParseTraceID(exemplarID))
	if got == nil {
		t.Fatalf("exemplar trace %s not retained", exemplarID)
	}
	if got.ID != tr.ID {
		t.Fatalf("exemplar led to trace %d, want %d", got.ID, tr.ID)
	}
	stages := map[trace.Stage]int{}
	for _, sp := range got.Spans {
		stages[sp.Stage]++
	}
	for _, want := range []trace.Stage{
		trace.StageFanoutDispatch, trace.StageShardKernel,
		trace.StageDeviceLookup, trace.StageSRAMKernel, trace.StageArbiterMerge,
	} {
		if stages[want] == 0 {
			t.Errorf("span tree missing stage %s (got %v)", want, stages)
		}
	}
	if stages[trace.StageShardKernel] != 4 {
		t.Errorf("%d shard_kernel spans, want one per shard (4)", stages[trace.StageShardKernel])
	}
	if stages[trace.StageDeviceLookup] != 4*len(hs) {
		t.Errorf("%d device_lookup spans, want shards*keys = %d", stages[trace.StageDeviceLookup], 4*len(hs))
	}

	// The same trace exports as a loadable Chrome trace-event timeline.
	var buf bytes.Buffer
	if err := trace.WriteTimeline(&buf, []*trace.Trace{got}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"shard_kernel"`)) {
		t.Fatalf("timeline export incomplete:\n%s", buf.String())
	}

	// And the blame report attributes the slow trace by stage and shard.
	rep := tracer.Blame(1, 0)
	if rep.Examined != 1 || len(rep.Stages) == 0 || len(rep.Shards) != 4 {
		t.Fatalf("blame report over the slow trace: examined=%d stages=%d shards=%d",
			rep.Examined, len(rep.Stages), len(rep.Shards))
	}
}
