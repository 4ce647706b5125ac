package cluster

import (
	"sync"
	"testing"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
)

// skewedRules puts every priority into the bottom shard's interval so
// the cluster starts maximally imbalanced.
func skewedRules(n int) []rules.Rule {
	rs := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, clRule(i, 1+i*4, rules.Prefix{Addr: uint32(i) << 8, Len: 24}))
	}
	return rs
}

func TestRebalanceIntervalMovesBoundary(t *testing.T) {
	c := testCluster(t, 4)
	for _, r := range skewedRules(120) { // priorities 1..477, all shard 0
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ShardEntries(); got[0] != 120 {
		t.Fatalf("skew setup failed: %v", got)
	}
	var total int
	for i := 0; i < 200; i++ {
		moved := c.RebalanceOnce(16)
		if moved == 0 {
			break
		}
		total += moved
		if err := c.CheckInvariant(); err != nil {
			t.Fatalf("after pass %d (moved %d): %v", i, moved, err)
		}
	}
	if total == 0 {
		t.Fatal("rebalancer moved nothing on a fully skewed cluster")
	}
	got := c.ShardEntries()
	if got[0] == 120 || got[1] == 0 {
		t.Fatalf("no spill to the neighbor: %v", got)
	}
	// Every rule still resolves to its action through the arbiter.
	for i := 0; i < 120; i++ {
		h := rules.Header{SrcIP: uint32(i) << 8}
		if a, ok := c.Lookup(h); !ok || a != i*10 {
			t.Fatalf("rule %d lost after rebalance: action=%d ok=%v", i, a, ok)
		}
	}
	passes, moved := c.RebalanceStats()
	if passes == 0 || moved != uint64(total) {
		t.Fatalf("stats = %d passes / %d moved, want >0 / %d", passes, moved, total)
	}
}

func TestRebalanceBalancedClusterIsNoop(t *testing.T) {
	c := testCluster(t, 2)
	if _, err := c.InsertRule(clRule(1, 100, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(clRule(2, 60000, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if moved := c.RebalanceOnce(8); moved != 0 {
		t.Fatalf("balanced cluster moved %d rules", moved)
	}
}

// TestRebalanceUnderChurn is the -race stress: a background rebalancer
// migrates boundary rules while classify and update traffic runs full
// tilt. The migration epoch (mu) must keep every lookup coherent — a
// rule is never observed half-moved — and the routing invariant must
// hold at every quiescent point.
func TestRebalanceUnderChurn(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 250, Seed: 21})
	c := testCluster(t, 4)
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	stop := c.StartRebalancer(200*time.Microsecond, 8)
	defer stop()

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Classify workers: every hit must name a currently-plausible rule.
	hs := classbench.PacketTrace(rs, 512, 0.9, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]core.LookupResult, 0, len(hs))
			for {
				select {
				case <-done:
					return
				default:
				}
				dst = c.LookupHeaderBatch(hs, dst[:0])
			}
		}()
	}

	// Churn worker: delete/re-insert cycles over a private ID range so
	// it never conflicts with the rules the classifiers expect.
	wg.Add(1)
	go func() {
		defer wg.Done()
		trace := classbench.UpdateTraceFresh(rs, 2000, 5)
		for _, u := range trace {
			select {
			case <-done:
				return
			default:
			}
			if u.Op == classbench.OpInsert {
				if _, err := c.InsertRule(u.Rule); err != nil {
					t.Errorf("churn insert %d: %v", u.Rule.ID, err)
					return
				}
			} else {
				if _, err := c.DeleteRule(u.Rule.ID); err != nil {
					t.Errorf("churn delete %d: %v", u.Rule.ID, err)
					return
				}
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(done)
	wg.Wait()
	stop()
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	passes, moved := c.RebalanceStats()
	t.Logf("rebalancer: %d passes, %d rules moved, shards %v", passes, moved, c.ShardEntries())
}
