package cluster

import (
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/trace"
)

// TestClusterTracedSpans checks the span shape of one traced batch: a
// fanout_dispatch span around the walk over the shards, one
// shard_kernel span per shard nested inside it, device and kernel spans
// beneath those carrying shard IDs, an arbiter_merge span, and
// identical results to the untraced path. A device emits kernel spans only for the
// subtables it searches, so the focus key must match a rule in every
// shard: one all-wildcard rule per shard, at a priority inside that
// shard's interval, makes every key such a key.
func TestClusterTracedSpans(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 4})
	c := testCluster(4)
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	bounds := c.Bounds()
	for i := 0; i < c.NumShards(); i++ {
		prio := bounds[len(bounds)-1] + 1 // above every bound: the top shard
		if i < len(bounds) {
			prio = bounds[i]
		}
		if _, err := c.InsertRule(clRule(1<<20+i, prio, rules.Prefix{})); err != nil {
			t.Fatal(err)
		}
	}
	hs := classbench.PacketTrace(rs, 64, 0.9, 9)
	for i, sh := range c.shards {
		if _, ok := sh.Lookup(hs[0]); !ok { // key 0 is the default focus
			t.Fatalf("shard %d matches no rule for the focus key", i)
		}
	}

	plain := c.LookupHeaderBatch(hs, nil)
	tr := &trace.Trace{ID: 11}
	traced := c.LookupHeaderBatchTraced(tr, hs, nil)
	if len(plain) != len(traced) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i].OK != traced[i].OK || plain[i].Entry.Rank != traced[i].Entry.Rank {
			t.Fatalf("header %d: traced result diverges", i)
		}
	}

	var dispatch, merge int
	var walk trace.Span
	shardKernels := map[int]int{}
	deviceShards := map[int]bool{}
	kernelShards := map[int]bool{}
	for _, sp := range tr.Spans {
		switch sp.Stage {
		case trace.StageFanoutDispatch:
			dispatch++
			walk = sp
		case trace.StageArbiterMerge:
			merge++
		case trace.StageShardKernel:
			shardKernels[sp.Shard]++
		case trace.StageDeviceLookup:
			deviceShards[sp.Shard] = true
		case trace.StageSRAMKernel:
			kernelShards[sp.Shard] = true
		default:
			t.Fatalf("unexpected stage %s in a cluster trace", sp.Stage)
		}
	}
	if dispatch != 1 || merge != 1 {
		t.Fatalf("dispatch/merge spans = %d/%d, want 1/1", dispatch, merge)
	}
	if len(shardKernels) != c.NumShards() {
		t.Fatalf("shard_kernel spans cover %d shards, want %d", len(shardKernels), c.NumShards())
	}
	for _, sp := range tr.Spans {
		if sp.Stage == trace.StageShardKernel && (sp.StartNs < walk.StartNs || sp.End() > walk.End()) {
			t.Fatalf("shard %d kernel span [%d, %d] outside the dispatch walk [%d, %d]",
				sp.Shard, sp.StartNs, sp.End(), walk.StartNs, walk.End())
		}
	}
	for sh, n := range shardKernels {
		if n != 1 {
			t.Fatalf("shard %d recorded %d shard_kernel spans, want 1", sh, n)
		}
		if sh < 0 || sh >= c.NumShards() {
			t.Fatalf("shard_kernel span names unknown shard %d", sh)
		}
	}
	// Every shard's device recorded per-key spans tagged with its own
	// shard ID, and the focus key's kernel detail is present per shard.
	if len(deviceShards) != c.NumShards() || len(kernelShards) != c.NumShards() {
		t.Fatalf("device/kernel spans cover %d/%d shards, want %d",
			len(deviceShards), len(kernelShards), c.NumShards())
	}
}

// TestClusterUpdateTraces traces every update of ClassBench churn —
// inserts, deletes and modifies, a quarter of them staying on their
// shard and the rest moving shards — on a 4-shard cluster. Each trace
// carries its shard's label on every step, ends in its one publish
// span, and has step cycles summing to the request's modelled cost; the
// traces' cycles add up to what the shards charged.
func TestClusterUpdateTraces(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 300, Seed: 11})
	c := testCluster(4)
	tt := trace.NewTracer(1024)
	tt.SetSampleEvery(1)
	c.AttachTracer(tt)
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range rs.Rules[:100] {
		mod := r
		mod.Priority = 1 + (r.Priority-1+16384*(i%4))%65535
		if _, err := c.ModifyRule(r.ID, mod); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rs.Rules[200:] {
		if _, err := c.DeleteRule(r.ID); err != nil {
			t.Fatal(err)
		}
	}

	traces := tt.Snapshot()
	if uint64(len(traces)) != tt.Total() {
		t.Fatalf("ring kept %d of %d traces", len(traces), tt.Total())
	}
	var cycles uint64
	shards := map[int]bool{}
	for _, tr := range traces {
		n := len(tr.Spans)
		if tr.Err != "" || n == 0 || tr.Spans[n-1].Stage != trace.StagePublish {
			t.Fatalf("%s trace of rule %d: err %q, spans %+v", tr.Kind, tr.RuleID, tr.Err, tr.Spans)
		}
		if tr.SpanCycles() != tr.Cycles {
			t.Fatalf("%s trace of rule %d: step cycles %d != request cycles %d", tr.Kind, tr.RuleID, tr.SpanCycles(), tr.Cycles)
		}
		shard := tr.Spans[n-1].Shard
		for i, sp := range tr.Spans {
			if sp.Shard != shard || sp.Table != -1 || sp.Stage == trace.StagePublish && i != n-1 {
				t.Fatalf("%s trace of rule %d: step %d %+v on shard %d", tr.Kind, tr.RuleID, i, sp, shard)
			}
		}
		shards[shard] = true
		cycles += tr.Cycles
	}
	if len(shards) != c.NumShards() {
		t.Fatalf("update traces from shards %v, want all %d", shards, c.NumShards())
	}
	if charged := c.Stats().UpdateCycles; cycles != charged {
		t.Fatalf("update traces sum to %d cycles, the shards charged %d", cycles, charged)
	}
}

// TestClusterTracedEntryPointAllocFree extends the classify
// zero-allocation guarantee to the traced entry point with no trace in
// flight.
func TestClusterTracedEntryPointAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs AllocsPerRun")
	}
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 4})
	c := testCluster(4)
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	hs := classbench.PacketTrace(rs, 256, 0.9, 9)
	dst := make([]core.LookupResult, 0, len(hs))
	c.LookupHeaderBatch(hs, dst) // warm the pooled round
	if avg := testing.AllocsPerRun(50, func() {
		dst = c.LookupHeaderBatchTraced(nil, hs, dst[:0])
	}); avg != 0 {
		t.Fatalf("traced entry point with nil trace allocates %.1f/op, want 0", avg)
	}
}
