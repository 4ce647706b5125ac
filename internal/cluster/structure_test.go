package cluster

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

func TestClusterDeriveStructure(t *testing.T) {
	c := testCluster(4)
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

// TestClusterDeriveStructureConcurrent: derives from several
// goroutines at once share the cluster's per-shard buffers without a
// lock, so each must still see every shard whole while a writer churns
// rules on both shards. Run with -race. A derive that reuses its
// destination and finds the buffers back in place allocates nothing.
func TestClusterDeriveStructureConcurrent(t *testing.T) {
	c := testCluster(2)
	const base, churn = 8, 8
	for i := 0; i < base; i++ {
		if _, err := c.InsertRule(spreadRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	width := testDeviceConfig().Subtables
	complete := func(s *core.Structure) string {
		perShard := [2]int{}
		sum := 0
		for _, sub := range s.Subtables {
			perShard[sub.Shard] += sub.Entries
			sum += sub.Entries
		}
		switch {
		case len(s.ShardEpochs) != 2 || s.TotalSubtables != 2*width:
			return fmt.Sprintf("%d shard epochs over %d subtables, want 2 over %d", len(s.ShardEpochs), s.TotalSubtables, 2*width)
		case sum != s.Entries || s.Entries < base || s.Entries > base+churn:
			return fmt.Sprintf("%d entries (subtables sum to %d), want %d..%d", s.Entries, sum, base, base+churn)
		case perShard[0] == 0 || perShard[1] == 0:
			return fmt.Sprintf("a shard is missing: per-shard entries %v", perShard)
		}
		return ""
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			r := spreadRule(base + i%churn)
			if _, err := c.InsertRule(r); err != nil {
				t.Errorf("insert %d: %v", r.ID, err)
				return
			}
			if _, err := c.DeleteRule(r.ID); err != nil {
				t.Errorf("delete %d: %v", r.ID, err)
				return
			}
			runtime.Gosched()
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var s *core.Structure
			for i := 0; i < 50; i++ {
				s = c.DeriveStructure(s)
				if msg := complete(s); msg != "" {
					t.Errorf("derive %d: %s", i, msg)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()

	if raceEnabled {
		return // the race detector perturbs AllocsPerRun
	}
	s := c.DeriveStructure(nil)
	if n := testing.AllocsPerRun(100, func() { s = c.DeriveStructure(s) }); n != 0 {
		t.Fatalf("steady-state derive allocates %v/op, want 0", n)
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
	c := testCluster(2)
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
	c := testCluster(2)
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(reg, nil, nil)
	for i := 0; i < 8; i++ {
		if _, err := c.InsertRule(spreadRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	everyShardHolds(t, c)
	gauges := reg.Snapshot().Gauges
	for i := 0; i < 2; i++ {
		got := gauges[`catcam_epoch{shard="`+strconv.Itoa(i)+`"}`]
		if want := int64(c.Shard(i).Epoch()); got != want {
			t.Fatalf("shard %d catcam_epoch = %d, want %d", i, got, want)
		}
	}
}

func TestClusterCarePerPosition(t *testing.T) {
	c := testCluster(2)
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
