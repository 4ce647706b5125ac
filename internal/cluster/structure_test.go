package cluster

import (
	"strconv"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

func TestClusterDeriveStructure(t *testing.T) {
	c := testCluster(t, 4)
	// Spread priorities across the interval partition so several shards
	// hold rules.
	for i := 0; i < 64; i++ {
		r := clRule(i+1, 1+i*1000, rules.Prefix{Addr: uint32(i) << 8, Len: 24})
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}

	s := c.DeriveStructure(nil)
	if len(s.ShardEpochs) != 4 {
		t.Fatalf("shard epochs %v, want 4 entries", s.ShardEpochs)
	}
	for i, e := range s.ShardEpochs {
		if e != c.Shard(i).Epoch() {
			t.Fatalf("shard %d epoch %d, want %d", i, e, c.Shard(i).Epoch())
		}
		if e > s.Epoch {
			t.Fatalf("aggregate epoch %d below shard %d epoch %d", s.Epoch, i, e)
		}
	}
	if s.Entries != c.Entries() {
		t.Fatalf("entries %d, want %d", s.Entries, c.Entries())
	}
	perShard := c.ShardEntries()
	sums := make([]int, 4)
	width := testDeviceConfig().Subtables
	if s.TotalSubtables != 4*width {
		t.Fatalf("total subtables %d, want %d", s.TotalSubtables, 4*width)
	}
	seen := map[int]bool{}
	for _, sub := range s.Subtables {
		if sub.Shard < 0 || sub.Shard > 3 {
			t.Fatalf("untagged shard: %+v", sub)
		}
		sums[sub.Shard] += sub.Entries
		if want := sub.Shard*width + sub.ID; sub.Index != want {
			t.Fatalf("dense index %d, want %d: %+v", sub.Index, want, sub)
		}
		if seen[sub.Index] {
			t.Fatalf("duplicate heatmap index %d", sub.Index)
		}
		seen[sub.Index] = true
	}
	populated := 0
	for i, got := range sums {
		if got != perShard[i] {
			t.Fatalf("shard %d derived %d entries, ShardEntries says %d", i, got, perShard[i])
		}
		if got > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("interval partition left %d shards populated, want >= 2", populated)
	}
	if s.Churn.Publishes == 0 || s.Ops.Inserts != 64 {
		t.Fatalf("aggregate accounting wrong: churn %+v ops %+v", s.Churn, s.Ops)
	}
	if s.FragIndex < 0 || s.FragIndex > 1 {
		t.Fatalf("weighted frag index %v out of range", s.FragIndex)
	}
}

// spreadRule is the i-th of a set of rules that alternate between the
// two sides of a 2-shard cluster's default bound (32768).
func spreadRule(i int) rules.Rule {
	return clRule(i+1, 100+i%2*40000+i, rules.Prefix{Addr: uint32(i) << 8, Len: 24})
}

// everyShardHolds fails the test unless each shard stores some entry.
func everyShardHolds(t *testing.T, c *Cluster) {
	t.Helper()
	for sh, n := range c.ShardEntries() {
		if n == 0 {
			t.Fatalf("shard %d holds no rules: %v", sh, c.ShardEntries())
		}
	}
}

func TestClusterResetStatsRunsHooks(t *testing.T) {
	c := testCluster(t, 2)
	hooks := 0
	c.OnStatsReset(func() { hooks++ })
	for i := 0; i < 8; i++ {
		if _, err := c.InsertRule(spreadRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	everyShardHolds(t, c)
	c.ResetStats()
	if hooks != 1 {
		t.Fatalf("cluster reset hook ran %d times, want 1", hooks)
	}
	s := c.DeriveStructure(nil)
	if s.Churn.Publishes != 0 || s.Ops.Inserts != 0 {
		t.Fatalf("shard stats survive cluster ResetStats: %+v %+v", s.Churn, s.Ops)
	}
	if s.Entries != 8 {
		t.Fatalf("ResetStats destroyed structure: %d entries", s.Entries)
	}
}

// TestClusterEpochGauges: each shard exports its own catcam_epoch
// series under its {shard="<i>"} label.
func TestClusterEpochGauges(t *testing.T) {
	c := testCluster(t, 2)
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(reg, nil, nil)
	for i := 0; i < 8; i++ {
		if _, err := c.InsertRule(spreadRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	everyShardHolds(t, c)
	for i := 0; i < 2; i++ {
		labels := telemetry.Labels{"shard": strconv.Itoa(i)}
		got := reg.Gauge("catcam_epoch", "", labels).Value()
		if want := int64(c.Shard(i).Epoch()); got != want {
			t.Fatalf("shard %d catcam_epoch = %d, want %d", i, got, want)
		}
	}
}

func TestClusterCarePerPosition(t *testing.T) {
	c := testCluster(t, 2)
	for i := 0; i < 16; i++ {
		if _, err := c.InsertRule(spreadRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	everyShardHolds(t, c)
	prof := c.CarePerPosition(nil)
	if len(prof) != 160 {
		t.Fatalf("profile width %d, want 160", len(prof))
	}
	var total uint64
	for _, v := range prof {
		total += v
	}
	if s := c.DeriveStructure(nil); total != s.CareBits {
		t.Fatalf("profile sum %d != aggregate care bits %d", total, s.CareBits)
	}
}
