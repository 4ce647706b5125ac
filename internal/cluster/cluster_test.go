package cluster

import (
	"errors"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/oracle"
	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/telemetry"
)

// testDeviceConfig sizes each shard generously enough that a full
// ClassBench ruleset fits on a single shard too (the differential
// reference device reuses it).
func testDeviceConfig() core.Config {
	return core.Config{Subtables: 128, SubtableCapacity: 64, KeyWidth: 160, FrequencyMHz: 500}
}

func testCluster(shards int) *Cluster {
	return New(Config{Shards: shards, Device: testDeviceConfig()})
}

// owned copies the cluster's owner map: which shard holds each rule,
// and the body it holds.
func owned(c *Cluster) map[int]ownedRule {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return maps.Clone(c.owner)
}

func clRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio, Action: id * 10,
		SrcIP: src, DstIP: rules.Prefix{Len: 0},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func TestClusterBasicUpdateLookup(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		c := testCluster(4)
		broad := clRule(1, 100, rules.Prefix{Len: 0})
		narrow := clRule(2, 40000, rules.Prefix{Addr: 0x0A000000, Len: 8})
		if _, err := c.InsertRule(broad); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertRule(narrow); err != nil {
			t.Fatal(err)
		}
		// Priorities 100 and 40000 must land on different shards under
		// the default even split of [0, 65536).
		if got := c.ShardEntries(); got[0] == 0 || got[2] == 0 {
			t.Fatalf("expected shards 0 and 2 populated, got %v", got)
		}
		if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203}); !ok || a != 20 {
			t.Fatalf("overlap lookup = %d,%v want 20,true", a, ok)
		}
		if a, ok := c.Lookup(rules.Header{SrcIP: 0xC0A80101}); !ok || a != 10 {
			t.Fatalf("broad lookup = %d,%v want 10,true", a, ok)
		}
		if _, err := c.DeleteRule(2); err != nil {
			t.Fatal(err)
		}
		if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203}); !ok || a != 10 {
			t.Fatalf("post-delete lookup = %d,%v want 10,true", a, ok)
		}
		if _, err := c.DeleteRule(2); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("double delete err = %v, want ErrNotFound", err)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestClusterDuplicateID(t *testing.T) {
	c := testCluster(2)
	if _, err := c.InsertRule(clRule(7, 10, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(clRule(7, 60000, rules.Prefix{Len: 0})); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert err = %v, want ErrDuplicate", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestClusterModifyMayChangeShard(t *testing.T) {
	c := testCluster(4)
	if _, err := c.InsertRule(clRule(3, 100, rules.Prefix{Addr: 0x0A000000, Len: 8})); err != nil {
		t.Fatal(err)
	}
	// New priority routes to the top shard; the rule must follow.
	if _, err := c.ModifyRule(3, clRule(3, 65000, rules.Prefix{Addr: 0x0A000000, Len: 8})); err != nil {
		t.Fatal(err)
	}
	if got := c.ShardEntries(); got[0] != 0 || got[3] == 0 {
		t.Fatalf("modify did not migrate shards: %v", got)
	}
	if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203}); !ok || a != 30 {
		t.Fatalf("lookup after modify = %d,%v", a, ok)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterModifySameShardOneEpoch: a modify whose new version stays
// on the shard holding the old one is that device's ModifyRule, one
// publication, and the owner record follows the new body.
func TestClusterModifySameShardOneEpoch(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		c := testCluster(4)
		src := rules.Prefix{Addr: 0x0A000000, Len: 8}
		if _, err := c.InsertRule(clRule(3, 40000, src)); err != nil {
			t.Fatal(err)
		}
		// 40000 -> 40001 stays inside shard 2's interval (32768, 49152].
		mod := clRule(3, 40001, src)
		mod.Action = 77
		before := c.Epoch()
		if _, err := c.ModifyRule(3, mod); err != nil {
			t.Fatal(err)
		}
		if got := c.Epoch() - before; got != 1 {
			t.Fatalf("same-shard modify advanced the epoch by %d, want 1", got)
		}
		if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203}); !ok || a != 77 {
			t.Fatalf("lookup after modify = %d,%v, want 77", a, ok)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		if held := owned(c); len(held) != 1 || held[3].rule != mod {
			t.Fatalf("owner map holds %+v, want the new version %+v", held, mod)
		}
		if _, err := c.ModifyRule(9, clRule(9, 1, src)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("modify of an unknown rule: %v, want ErrNotFound", err)
		}
	})
}

// TestClusterEmptyRuleReleasesOwner: a rule that encodes to no entries
// is refused by the device, so the cluster's claim on its ID is
// released (the ID can be inserted again) and a modify to such a
// version, on either path, leaves the old version installed.
func TestClusterEmptyRuleReleasesOwner(t *testing.T) {
	c := testCluster(4)
	src := rules.Prefix{Addr: 0x0A000000, Len: 8}
	empty := func(prio int) rules.Rule {
		r := clRule(5, prio, src)
		r.SrcPort = rules.PortRange{Lo: 9, Hi: 3}
		return r
	}
	if _, err := c.InsertRule(empty(100)); !errors.Is(err, core.ErrEmptyRule) {
		t.Fatalf("insert of an empty rule: %v, want ErrEmptyRule", err)
	}
	if c.Len() != 0 {
		t.Fatalf("owner map kept %d records for a rule no device holds", c.Len())
	}
	if _, err := c.InsertRule(clRule(5, 100, src)); err != nil {
		t.Fatalf("the refused ID is still claimed: %v", err)
	}
	for _, prio := range []int{101, 65000} { // same shard, another shard
		if _, err := c.ModifyRule(5, empty(prio)); !errors.Is(err, core.ErrEmptyRule) {
			t.Fatalf("modify to an empty version (priority %d): %v, want ErrEmptyRule", prio, err)
		}
		if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203}); !ok || a != 50 {
			t.Fatalf("after the refused modify the old version answers %d,%v, want 50", a, ok)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// sameWinners holds an N-shard cluster to one single device holding the
// same rules: same hit/miss and same winning rule, header by header.
func sameWinners(t *testing.T, c *Cluster, ref *core.Device, hs []rules.Header) {
	t.Helper()
	got := c.LookupHeaderBatch(hs, nil)
	want := ref.LookupHeaderBatch(hs, nil)
	for i := range hs {
		if got[i].OK != want[i].OK {
			t.Fatalf("header %d: cluster hit=%v, device hit=%v", i, got[i].OK, want[i].OK)
		}
		if got[i].OK && got[i].Entry.Rank.RuleID != want[i].Entry.Rank.RuleID {
			t.Fatalf("header %d: cluster winner %d, device winner %d",
				i, got[i].Entry.Rank.RuleID, want[i].Entry.Rank.RuleID)
		}
	}
}

// TestClusterDifferential is the subsystem's ground truth: an N-shard
// interval-partitioned cluster must classify identically to one single
// device holding the same rules — over every ClassBench family with a
// packet trace after load and churn, and over every op stream in core's
// FuzzDeviceVsLinear seed corpus after each op.
func TestClusterDifferential(t *testing.T) {
	for _, fam := range classbench.Families() {
		t.Run("interval/"+fam.String(), func(t *testing.T) {
			rs := classbench.Generate(classbench.Config{Family: fam, Size: 300, Seed: 11})
			c := testCluster(4)
			ref := core.NewDevice(testDeviceConfig())
			aud := flightrec.NewAuditor(nil, nil, 0, nil)
			aud.SetLookupSampleEvery(1)
			c.AttachAuditor(aud)
			for _, r := range rs.Rules {
				if _, err := c.InsertRule(r); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.InsertRule(r); err != nil {
					t.Fatal(err)
				}
			}
			// Churn half the rules so the differential also covers the
			// delete path and re-insertion placement.
			for _, u := range classbench.UpdateTrace(rs, 200, 7) {
				if u.Op == classbench.OpInsert {
					if _, err := c.InsertRule(u.Rule); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.InsertRule(u.Rule); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := c.DeleteRule(u.Rule.ID); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.DeleteRule(u.Rule.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			sameWinners(t, c, ref, classbench.PacketTrace(rs, 2000, 0.9, 3))
			if err := c.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			// Every lookup was arbiter-audited (SampleEvery: 1).
			if aud.ViolationCount(flightrec.InvArbiterWinner) != 0 {
				t.Fatalf("arbiter audit violations: %v", aud.Violations())
			}
			if aud.Checks(flightrec.InvArbiterWinner) == 0 {
				t.Fatal("arbiter audit never ran")
			}
		})
	}
	// The op streams of core's FuzzDeviceVsLinear seed corpus, op by op.
	probes := oracle.Probes()
	seeds, err := oracle.Seeds("../core/testdata/fuzz/FuzzDeviceVsLinear")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		t.Run("interval/"+name, func(t *testing.T) {
			c := testCluster(4)
			ref := core.NewDevice(testDeviceConfig())
			m := oracle.NewMirror()
			for op, o := range oracle.Decode(data) {
				if o.Kind == oracle.Lookup {
					sameWinners(t, c, ref, []rules.Header{o.Header})
					continue
				}
				kind, r := m.Kind(o), o.Rule
				_, gotErr := oracle.Run[core.UpdateResult](c, kind, r)
				_, wantErr := oracle.Run[core.UpdateResult](ref, kind, r)
				// The shards are sized so that neither side fills: the
				// only error a stream can draw is ErrNotFound, from both.
				if !errors.Is(gotErr, wantErr) || (wantErr != nil && !errors.Is(wantErr, core.ErrNotFound)) {
					t.Fatalf("op %d: cluster says %v, device says %v", op, gotErr, wantErr)
				}
				if err := m.Apply(kind, r, wantErr); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				sameWinners(t, c, ref, probes)
				if err := c.CheckInvariant(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// TestClusterLookupAllocFree: with a reused dst, steady-state classify
// allocates nothing, batch or single Lookup — the pooled round reuses
// its per-shard result slices, Lookup's batch of one lives on the
// stack, and the audit closures only form on the sampled cold path
// (sampling disabled here, auditor still attached, as in production
// between samples).
func TestClusterLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs AllocsPerRun")
	}
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 4})
	c := testCluster(4)
	c.AttachAuditor(flightrec.NewAuditor(nil, nil, 0, nil))
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	hs := classbench.PacketTrace(rs, 256, 0.9, 9)
	dst := make([]core.LookupResult, 0, len(hs))
	c.LookupHeaderBatch(hs, dst) // warm the pooled round
	if avg := testing.AllocsPerRun(50, func() {
		dst = c.LookupHeaderBatch(hs, dst[:0])
	}); avg != 0 {
		t.Fatalf("batch allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		c.Lookup(hs[0])
	}); avg != 0 {
		t.Fatalf("single lookup allocates %.1f times per call, want 0", avg)
	}
}

// TestClusterStartsNoGoroutines: classify runs in the caller, so
// building a cluster and classifying through it do not raise the
// goroutine count, and there is nothing to Close. A goroutine an earlier
// test left may still be exiting, so the count is taken once it has
// stopped falling, and may fall further, never rise.
func TestClusterStartsNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	c := testCluster(4)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("New started %d goroutines", n-before)
	}
	if _, err := c.InsertRule(clRule(1, 100, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	hs := []rules.Header{{SrcIP: 1}, {SrcIP: 2}, {SrcIP: 3}, {SrcIP: 4}}
	var dst []core.LookupResult
	for i := 0; i < 100; i++ {
		dst = c.LookupHeaderBatch(hs, dst[:0])
		c.Lookup(hs[i%len(hs)])
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("classify left %d goroutines behind", n-before)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for a millisecond, waiting at most 100ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func TestClusterTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := testCluster(2)
	c.AttachTelemetry(reg, nil, nil)
	if _, err := c.InsertRule(clRule(1, 10, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(clRule(2, 60000, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	hs := []rules.Header{{SrcIP: 1}, {SrcIP: 2}, {SrcIP: 3}}
	c.LookupHeaderBatch(hs, nil)
	snap := reg.Snapshot()
	if got := snap.Counters["catcam_cluster_lookups_total"]; got != 3 {
		t.Fatalf("cluster lookup counter = %d, want 3", got)
	}
	// Per-shard device series carry the shard label.
	if got := snap.Gauges[`catcam_entries{shard="0"}`]; got != 1 {
		t.Fatalf(`shard 0 entries gauge = %d, want 1`, got)
	}
	if got := snap.Gauges[`catcam_entries{shard="1"}`]; got != 1 {
		t.Fatalf(`shard 1 entries gauge = %d, want 1`, got)
	}
	found := false
	for name, h := range snap.Histograms {
		if name == "catcam_cluster_fanout_ns" && h.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fan-out histogram missing or empty: %v", snap.Histograms)
	}
}

func TestClusterAuditSweep(t *testing.T) {
	c := testCluster(2)
	aud := flightrec.NewAuditor(nil, nil, 0, nil)
	c.AttachAuditor(aud)
	if _, err := c.InsertRule(clRule(1, 10, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	info := c.AuditSweep()
	if info.Checks == 0 || info.Violations != 0 {
		t.Fatalf("sweep = %+v", info)
	}
	if aud.Checks(flightrec.InvShardInterval) == 0 {
		t.Fatal("shard interval invariant never checked")
	}

	// Corrupt the routing state: claim the rule lives outside its
	// interval. The sweep must report it.
	c.routeMu.Lock()
	o := c.owner[1]
	o.shard = 1
	c.owner[1] = o
	c.routeMu.Unlock()
	info = c.AuditSweep()
	if info.Violations == 0 {
		t.Fatal("sweep missed an out-of-interval rule")
	}
	if aud.ViolationCount(flightrec.InvShardInterval) == 0 {
		t.Fatal("violation not attributed to InvShardInterval")
	}
}

// answers appends cluster results to dst as the oracle's (action,
// matched).
func answers(dst []oracle.Answer, rs []core.LookupResult) []oracle.Answer {
	for _, r := range rs {
		dst = append(dst, oracle.Answer{Action: r.Entry.Action, Matched: r.OK})
	}
	return dst
}

// windowReaders starts n readers, each running classify(g, dst) until
// the returned stop is called. A reader reads c.Epoch() before and after
// every call and holds all of its answers, raced or not, to w over that
// window; hs(g) names the headers reader g's answers are for. stop
// closes w, waits for the readers and fails the test if they checked
// nothing.
func windowReaders(t *testing.T, c *Cluster, w *oracle.Window, n int, hs func(g int) []rules.Header,
	classify func(g int, dst []core.LookupResult) []core.LookupResult) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	var checked, raced atomic.Uint64
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res []core.LookupResult
			var got []oracle.Answer
			for !halt.Load() {
				before := c.Epoch()
				res = classify(g, res[:0])
				after := c.Epoch()
				if err := w.Check(hs(g), answers(got[:0], res), before, after); err != nil {
					t.Error(err)
					return
				}
				checked.Add(1)
				if after != before {
					raced.Add(1)
				}
				// A classify never blocks, so on one P hand the writer its
				// turn instead of spinning to the next preemption.
				runtime.Gosched()
			}
		}()
	}
	return sync.OnceFunc(func() {
		w.Close()
		halt.Store(true)
		wg.Wait()
		if checked.Load() == 0 {
			t.Error("the readers checked nothing")
		}
		t.Logf("readers: %d calls checked, %d raced a cut, over %d cuts", checked.Load(), raced.Load(), w.Recorded())
	})
}

// TestClusterChurnVsClassify races three classify goroutines, each
// walking every shard through LookupHeaderBatch and Lookup, against
// rule churn. Every answer must be swclass.Linear's at some cut between
// the Cluster.Epoch() reads around its call (oracle.Window); the writer
// mirrors each update and records the cut it stored. The arbiter audit
// at 1-in-1 is a second check: it compares the owner map only while the
// round's cut is current, so churn must raise no violation. Run with
// -race for the memory-model half of the claim.
func TestClusterChurnVsClassify(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 150, Seed: 71})
		c := testCluster(4)
		aud := flightrec.NewAuditor(nil, nil, 64, nil)
		aud.SetLookupSampleEvery(1)
		c.AttachAuditor(aud)

		m := oracle.NewMirror()
		half := len(rs.Rules) / 2
		for _, r := range rs.Rules[:half] {
			if _, err := c.InsertRule(r); err != nil {
				t.Fatalf("preload: %v", err)
			}
			if err := m.Apply(oracle.Insert, r, nil); err != nil {
				t.Fatal(err)
			}
		}
		headers := classbench.PacketTrace(rs, 64, 0.9, 72)
		const iters = 10
		w := oracle.NewWindow(m.Ref, headers, c.Epoch(), 1+iters*2*(len(rs.Rules)-half))

		stop := windowReaders(t, c, w, 3,
			func(g int) []rules.Header {
				if g == 0 {
					return headers[:1]
				}
				return headers
			},
			func(g int, dst []core.LookupResult) []core.LookupResult {
				if g == 0 {
					a, ok := c.Lookup(headers[0])
					return append(dst, core.LookupResult{Entry: core.Entry{Action: a}, OK: ok})
				}
				return c.LookupHeaderBatch(headers, dst)
			})
		defer stop()
		update := func(kind oracle.Kind, r rules.Rule) {
			var err error
			if kind == oracle.Delete {
				_, err = c.DeleteRule(r.ID)
			} else {
				_, err = c.InsertRule(r)
			}
			if err == nil {
				err = m.Apply(kind, r, nil)
			}
			if err == nil {
				err = w.Record(c.Epoch())
			}
			if err != nil {
				t.Fatalf("kind %d rule %d: %v", kind, r.ID, err)
			}
		}
		for iter := 0; iter < iters; iter++ {
			for _, r := range rs.Rules[half:] {
				update(oracle.Insert, r)
			}
			for _, r := range rs.Rules[half:] {
				update(oracle.Delete, r)
			}
		}
		stop()

		if n := aud.TotalViolations(); n != 0 {
			for _, v := range aud.Violations() {
				t.Logf("violation: %+v", v)
			}
			t.Fatalf("%d audit violations under cluster churn-vs-classify", n)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClusterModifyChurnVsClassify: while a writer keeps modifying a
// rule, a reader classifies a header that rule and a lower-priority
// catch-all both cover. Every answer must be the reference's at some
// cut between the Cluster.Epoch() reads around it, so one version or
// the other of the rule and never the catch-all. A modify that stays on
// its shard is one device epoch; one that flips the priority across a
// shard bound every iteration moves the rule between shards. On a full
// shard every other modify's new version does not fit and is refused,
// with the old version still installed, owned and answering. Each
// stores one cut, the writer finds the installed version answering
// after every modify, and the arbiter audit at 1-in-1 sees no winner it
// cannot account for.
func TestClusterModifyChurnVsClassify(t *testing.T) {
	for _, tc := range []struct {
		name string
		flip int // the modify alternates priority 40000 and 40000+flip
		// full: the shards are one 4-slot subtable each, shard 2 holds
		// two fillers beside the rule, and every other modify's new
		// version stores 4 rows, which do not fit beside the old one.
		full bool
	}{
		{"interval", 1, false},
		// 40000 is shard 2's, 50000 shard 3's (bounds 16384, 32768, 49152).
		{"interval/cross-shard", 10000, false},
		{"interval/full-shard", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(4)
			src := rules.Prefix{Addr: 0x0A000000, Len: 8}
			load := []rules.Rule{clRule(1, 10, rules.Prefix{Len: 0}), clRule(2, 40000, src)}
			if tc.full {
				c = New(Config{Shards: 4, Device: core.Config{Subtables: 1, SubtableCapacity: 4, KeyWidth: 160}})
				for id := 3; id <= 4; id++ {
					load = append(load, clRule(id, 40000+id, rules.Prefix{Addr: 0x0B000000, Len: 8}))
				}
			}
			aud := flightrec.NewAuditor(nil, nil, 64, nil)
			aud.SetLookupSampleEvery(1)
			c.AttachAuditor(aud)
			m := oracle.NewMirror()
			for _, r := range load {
				if _, err := c.InsertRule(r); err != nil {
					t.Fatal(err)
				}
				if err := m.Apply(oracle.Insert, r, nil); err != nil {
					t.Fatal(err)
				}
			}
			hs := []rules.Header{{SrcIP: 0x0A010203}}
			const modifies = 2000
			w := oracle.NewWindow(m.Ref, hs, c.Epoch(), 1+modifies)

			stop := windowReaders(t, c, w, 1, func(int) []rules.Header { return hs },
				func(_ int, dst []core.LookupResult) []core.LookupResult {
					a, ok := c.Lookup(hs[0])
					return append(dst, core.LookupResult{Entry: core.Entry{Action: a}, OK: ok})
				})
			defer stop()
			for i := 0; i < modifies && !t.Failed(); i++ {
				mod := clRule(2, 40000+i%2*tc.flip, src)
				mod.Action = 100 + i
				var want error
				if tc.full && i%2 == 1 {
					mod.DstPort, want = rules.PortRange{Lo: 1, Hi: 6}, core.ErrFull // 4 rows
				}
				_, err := c.ModifyRule(2, mod)
				if !errors.Is(err, want) {
					t.Fatalf("modify %d: %v, want %v", i, err, want)
				}
				for _, e := range []error{m.Apply(oracle.Modify, mod, err), w.Record(c.Epoch())} {
					if e != nil {
						t.Fatalf("modify %d: %v", i, e)
					}
				}
				if a, ok := c.Lookup(hs[0]); !ok || a != m.Live[2].Action {
					t.Fatalf("modify %d (err %v): the header answers %d,%v, want the installed version's %d", i, err, a, ok, m.Live[2].Action)
				}
				runtime.Gosched() // on one P, let the reader in between modifies
			}
			stop()
			if got := owned(c)[2].rule; got != m.Live[2] {
				t.Fatalf("owner map holds %+v, want the installed version %+v", got, m.Live[2])
			}
			if n := aud.ViolationCount(flightrec.InvArbiterWinner); n != 0 {
				t.Fatalf("%d arbiter_winner violations under modify churn: %+v", n, aud.Violations())
			}
			if err := c.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// interposer is a shadow reference that runs hook once, from inside the
// next sampled lookup of the device it shadows: after that device
// classified the header and before its lookup returns.
type interposer struct {
	*swclass.Linear
	hook func()
}

func (p *interposer) Lookup(h rules.Header) (int, bool, int) {
	if hook := p.hook; hook != nil {
		p.hook = nil
		hook()
	}
	return p.Linear.Lookup(h)
}

// TestClusterRoundReadsOneCut: rules L (priority 100, shard 0) and Y
// (priority 40,000, shard 1) match one header. One writer inserts M
// (priority 200, shard 0) and then deletes Y while a classify round is
// between its shard-0 and shard-1 reads, so the writer states answer Y,
// Y, M. The round must answer one of them. A round that read shard 0
// before the writes and shard 1 after them answers L, which no writer
// state had. The writer runs inside shard 0's shadow reference, which
// the round calls after shard 0 classified; it detaches the shadows
// first, or shard 0's insert would wait on the shadow lock the round
// holds.
func TestClusterRoundReadsOneCut(t *testing.T) {
	c := testCluster(2) // shard 1 owns priorities above 32768
	all := rules.Prefix{Len: 0}
	l, y, m := clRule(1, 100, all), clRule(2, 40000, all), clRule(3, 200, all)
	ref := &interposer{Linear: swclass.NewLinear()}
	c.AttachShadows(func(shard int) *flightrec.Shadow {
		if shard != 0 {
			return nil
		}
		sh := flightrec.NewShadow(ref, nil, -1)
		sh.SetSampleEvery(1)
		return sh
	})
	for _, r := range []rules.Rule{l, y} {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	ref.hook = func() {
		c.AttachShadows(func(int) *flightrec.Shadow { return nil })
		if _, err := c.InsertRule(m); err != nil {
			t.Error(err)
		}
		if _, err := c.DeleteRule(y.ID); err != nil {
			t.Error(err)
		}
	}
	h := rules.Header{SrcIP: 0x0A010203}
	if a, ok := c.Lookup(h); !ok || (a != y.Action && a != m.Action) {
		t.Errorf("the round answered %d (matched %v); the writer states answer %d (Y) or %d (M), and L is %d",
			a, ok, y.Action, m.Action, l.Action)
	}
	if ref.hook != nil {
		t.Fatal("the round never ran the writer")
	}
	if a, ok := c.Lookup(h); !ok || a != m.Action {
		t.Fatalf("after the writer the cluster answers %d (matched %v), want M's %d", a, ok, m.Action)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShardPublishedBehindCut: a shard republished outside the
// cluster leaves the cut holding its old view, so the cluster would go
// on answering from that view; CheckInvariant and AuditSweep's
// InvShardInterval must both say so. Cluster.SetTraceLabels relabels
// the shards and stores a cut, so it leaves the cluster clean.
func TestClusterShardPublishedBehindCut(t *testing.T) {
	c := testCluster(2)
	aud := flightrec.NewAuditor(nil, nil, 64, nil)
	c.AttachAuditor(aud)
	c.SetTraceLabels(7)
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("after Cluster.SetTraceLabels: %v", err)
	}
	c.Shard(0).SetTraceLabels(7, 0)
	if err := c.CheckInvariant(); err == nil {
		t.Fatal("CheckInvariant passed with shard 0 published behind the cut")
	}
	if s := c.AuditSweep(); s.Violations == 0 || aud.ViolationCount(flightrec.InvShardInterval) != 1 {
		t.Fatalf("sweep %+v, %d shard_interval violations; want the stale cut reported once",
			s, aud.ViolationCount(flightrec.InvShardInterval))
	}
}

// TestClusterModifyDestinationFull: a modify that crosses shards
// inserts before it deletes, so a destination shard that cannot take
// the new version — outright, or part-way through its expansion —
// returns ErrFull with the old version still installed, still owned and
// still answering.
func TestClusterModifyDestinationFull(t *testing.T) {
	src := rules.Prefix{Addr: 0x0A000000, Len: 8}
	for _, tc := range []struct {
		name    string
		preload int             // rules already in the 4-slot destination shard
		dstPort rules.PortRange // the new version's expansion
	}{
		{"no free slot", 4, rules.FullPortRange()},
		{"expansion does not fit", 2, rules.PortRange{Lo: 1, Hi: 6}}, // 4 entries into 2 slots
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two shards of one 4-slot subtable; shard 1 owns priorities
			// above 32768.
			c := New(Config{Shards: 2,
				Device: core.Config{Subtables: 1, SubtableCapacity: 4, KeyWidth: 160}})
			for i := 0; i < tc.preload; i++ {
				if _, err := c.InsertRule(clRule(10+i, 50000+i, rules.Prefix{Addr: 0x0B000000, Len: 8})); err != nil {
					t.Fatal(err)
				}
			}
			old := clRule(1, 100, src)
			if _, err := c.InsertRule(old); err != nil {
				t.Fatal(err)
			}
			mod := clRule(1, 40000, src)
			mod.Action, mod.DstPort = 99, tc.dstPort
			epochs := [2]uint64{c.Shard(0).Epoch(), c.Shard(1).Epoch()}
			if _, err := c.ModifyRule(1, mod); !errors.Is(err, core.ErrFull) {
				t.Fatalf("modify into a full shard: %v, want ErrFull", err)
			}
			if got := c.Shard(0).Epoch(); got != epochs[0] {
				t.Fatalf("source shard published %d epochs for a refused modify", got-epochs[0])
			}
			if a, ok := c.Lookup(rules.Header{SrcIP: 0x0A010203, DstPort: 3}); !ok || a != old.Action {
				t.Fatalf("after the refused modify the old version answers %d,%v, want %d", a, ok, old.Action)
			}
			if got := owned(c); len(got) != tc.preload+1 || got[1] != (ownedRule{shard: 0, rule: old}) {
				t.Fatalf("owner map holds %+v, want the old version %+v on shard 0", got[1], old)
			}
			if got := c.ShardEntries(); got[0] != 1 || got[1] != tc.preload {
				t.Fatalf("shard entries %v, want [1 %d]", got, tc.preload)
			}
			if err := c.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterStatsAggregate(t *testing.T) {
	c := testCluster(3)
	// Priorities 1 .. 56001 cross both default bounds (21845, 43690).
	for i := 0; i < 9; i++ {
		if _, err := c.InsertRule(clRule(i, 1+i*7000, rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	everyShardHolds(t, c)
	if got := c.Stats().Inserts; got != 9 {
		t.Fatalf("aggregate inserts = %d, want 9", got)
	}
	if c.Len() != 9 || c.Entries() != 9 {
		t.Fatalf("Len=%d Entries=%d, want 9/9", c.Len(), c.Entries())
	}
	c.ResetStats()
	if got := c.Stats().Inserts; got != 0 {
		t.Fatalf("post-reset inserts = %d", got)
	}
}
