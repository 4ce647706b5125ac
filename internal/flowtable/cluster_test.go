package flowtable

import (
	"testing"

	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

// buildShardedPipeline mirrors buildPipeline, but backs the middle
// table with a 4-shard cluster — a pipeline can mix engines freely.
func buildShardedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: smallDev(), Miss: MissPolicy{Continue: true}, Shards: 4},
		{ID: 2, Device: smallDev(), Miss: MissPolicy{MissAction: Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInstall(t, p, 0, FlowRule{Rule: srcRule(1, 10, 0x0A666600, 24), Instruction: Terminal(Drop)})
	mustInstall(t, p, 0, FlowRule{Rule: anyRule(2, 1), Instruction: Goto(1)})
	mustInstall(t, p, 1, FlowRule{Rule: srcRule(3, 5, 0x0A000000, 8), Instruction: Goto(2)})
	mustInstall(t, p, 2, FlowRule{Rule: anyRule(4, 1), Instruction: Terminal(7)})
	return p
}

func TestClusterBackedPipeline(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		p := buildShardedPipeline(t)
		// Same traffic, same verdicts as the single-device pipeline.
		if a, _ := p.Classify(rules.Header{SrcIP: 0x0A666601}); a != Drop {
			t.Fatalf("bad source: action=%d", a)
		}
		if a, _ := p.Classify(rules.Header{SrcIP: 0x0A010203}); a != 7 {
			t.Fatalf("zone traffic: action=%d", a)
		}
		// Non-zone traffic misses table 1, continues to table 2 and
		// hits the catch-all there.
		if a, _ := p.Classify(rules.Header{SrcIP: 0xC0A80101}); a != 7 {
			t.Fatalf("other traffic: action=%d", a)
		}
		got := p.ClassifyBatch(nil, []rules.Header{
			{SrcIP: 0x0A666601}, {SrcIP: 0x0A010203}, {SrcIP: 0xC0A80101},
		}, nil)
		want := []int{Drop, 7, 7}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		if err := p.CheckInvariant(); err != nil {
			t.Fatal(err)
		}

		// Spread rules across priorities so several shards of the
		// sharded table actually populate, then fan some packets.
		for i := 0; i < 32; i++ {
			mustInstall(t, p, 1, FlowRule{
				Rule:        srcRule(100+i, 1000+i*2000, uint32(0x14000000+i<<8), 24),
				Instruction: Goto(2),
			})
		}
		for i := 0; i < 32; i++ {
			if a, _ := p.Classify(rules.Header{SrcIP: uint32(0x14000000 + i<<8)}); a != 7 {
				t.Fatalf("spread rule %d: action=%d", i, a)
			}
		}
		cl, ok := p.Table(1)
		if !ok {
			t.Fatal("table 1 missing")
		}
		c, ok := cl.(*cluster.Cluster)
		if !ok {
			t.Fatalf("table 1 backend is %T, want *cluster.Cluster", cl)
		}
		populated := 0
		for _, n := range c.ShardEntries() {
			if n > 0 {
				populated++
			}
		}
		if populated < 2 {
			t.Fatalf("interval spread landed on %d shards: %v", populated, c.ShardEntries())
		}
		if _, ok := p.Table(0); !ok {
			t.Fatal("table 0 missing")
		}
		if d, _ := p.Table(0); d != nil {
			if _, ok := d.(*core.Device); !ok {
				t.Fatalf("table 0 backend is %T, want *core.Device", d)
			}
		}
	})
}

func TestClusterBackedPipelineTelemetry(t *testing.T) {
	p := buildShardedPipeline(t)
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, nil, nil)
	p.Classify(rules.Header{SrcIP: 0x0A010203})
	snap := reg.Snapshot()
	// The sharded table's devices export with both table and shard labels.
	found := false
	for name := range snap.Gauges {
		if name == `catcam_entries{shard="0",table="1"}` || name == `catcam_entries{table="1",shard="0"}` {
			found = true
		}
	}
	if !found {
		keys := make([]string, 0, len(snap.Gauges))
		for k := range snap.Gauges {
			keys = append(keys, k)
		}
		t.Fatalf("no per-shard per-table gauge series; gauges: %v", keys)
	}
	if got := snap.Counters[`catcam_cluster_lookups_total{table="1"}`]; got != 1 {
		t.Fatalf("cluster lookup counter = %d, want 1", got)
	}
}

// TestPipelineRejectsUnknownPartition: the cluster partitions only by
// priority interval, so any other Partition value is refused rather
// than silently ignored.
func TestPipelineRejectsUnknownPartition(t *testing.T) {
	for _, shards := range []int{1, 4} {
		if _, err := NewPipeline([]TableConfig{
			{ID: 0, Device: smallDev(), Shards: shards, Partition: cluster.ModeInterval + 1},
		}); err == nil {
			t.Fatalf("%d-shard table with partition %d accepted", shards, cluster.ModeInterval+1)
		}
	}
}

// TestPipelineRejectsFanWorkers: a cluster classifies in the caller, so
// the deprecated FanWorkers field accepts only the values that meant
// one worker.
func TestPipelineRejectsFanWorkers(t *testing.T) {
	for _, w := range []int{0, 1, 2} {
		_, err := NewPipeline([]TableConfig{{ID: 0, Device: smallDev(), Shards: 2, FanWorkers: w}})
		if (err == nil) != (w <= 1) {
			t.Fatalf("FanWorkers %d: err = %v", w, err)
		}
	}
}
