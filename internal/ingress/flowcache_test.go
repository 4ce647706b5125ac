package ingress

import (
	"testing"

	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/rules"
)

func TestFlowCacheNilIsOff(t *testing.T) {
	var c *FlowCache
	if c := NewFlowCache(0); c != nil {
		t.Fatal("NewFlowCache(0) should return nil")
	}
	if _, _, hit := c.Lookup(hdr(1), 1); hit {
		t.Fatal("nil cache hit")
	}
	c.Insert(hdr(1), 1, 5, true) // must not panic
	if c.Cap() != 0 {
		t.Fatalf("nil Cap = %d", c.Cap())
	}
	if c.StaleMisses() != 0 {
		t.Fatalf("nil StaleMisses = %d", c.StaleMisses())
	}
}

func TestFlowCacheHitRequiresExactKeyAndEpoch(t *testing.T) {
	c := NewFlowCache(64)
	h := hdr(42)
	if _, _, hit := c.Lookup(h, 7); hit {
		t.Fatal("hit on empty cache")
	}
	c.Insert(h, 7, 3, true)
	action, matched, hit := c.Lookup(h, 7)
	if !hit || action != 3 || !matched {
		t.Fatalf("Lookup = (%d, %v, %v), want (3, true, true)", action, matched, hit)
	}
	// Same flow, advanced epoch: the stamp mismatch must miss — this is
	// the entire invalidation mechanism.
	if _, _, hit := c.Lookup(h, 8); hit {
		t.Fatal("stale entry served after epoch advance")
	}
	// Different flow, same epoch: exact-match only.
	other := h
	other.SrcPort++
	if _, _, hit := c.Lookup(other, 7); hit {
		t.Fatal("hit on a different 5-tuple")
	}
	// Refill at the new epoch revalidates.
	c.Insert(h, 8, 4, false)
	action, matched, hit = c.Lookup(h, 8)
	if !hit || action != 4 || matched {
		t.Fatalf("refilled Lookup = (%d, %v, %v), want (4, false, true)", action, matched, hit)
	}
}

func TestFlowCacheNegativeResultCached(t *testing.T) {
	c := NewFlowCache(64)
	h := hdr(1)
	c.Insert(h, 1, 0, false) // "no rule matched" verdict
	action, matched, hit := c.Lookup(h, 1)
	if !hit || matched || action != 0 {
		t.Fatalf("negative verdict Lookup = (%d, %v, %v), want (0, false, true)", action, matched, hit)
	}
}

// TestFlowCacheTwoWaySet proves both ways of a set are usable and that
// the in-set LRU evicts the colder entry. Capacity 2 = one set, so any
// two flows collide.
func TestFlowCacheTwoWaySet(t *testing.T) {
	c := NewFlowCache(2)
	a, b, x := hdr(1), hdr(2), hdr(3)
	c.Insert(a, 1, 10, true)
	c.Insert(b, 1, 20, true)
	if action, _, hit := c.Lookup(a, 1); !hit || action != 10 {
		t.Fatalf("a: (%d, %v), want (10, hit)", action, hit)
	}
	if action, _, hit := c.Lookup(b, 1); !hit || action != 20 {
		t.Fatalf("b: (%d, %v), want (20, hit)", action, hit)
	}
	// Touch a (making b the LRU), insert x: b must be the eviction.
	c.Lookup(a, 1)
	c.Insert(x, 1, 30, true)
	if _, _, hit := c.Lookup(a, 1); !hit {
		t.Fatal("MRU entry a evicted")
	}
	if _, _, hit := c.Lookup(b, 1); hit {
		t.Fatal("LRU entry b survived eviction")
	}
	if action, _, hit := c.Lookup(x, 1); !hit || action != 30 {
		t.Fatalf("x: (%d, %v), want (30, hit)", action, hit)
	}
}

// TestFlowCacheRefillNoDuplicate inserts the same flow twice (the
// epoch-refill path) and proves the set holds one entry for it, not
// two — otherwise a set could silently halve its capacity.
func TestFlowCacheRefillNoDuplicate(t *testing.T) {
	c := NewFlowCache(2)
	a, b := hdr(1), hdr(2)
	c.Insert(a, 1, 10, true)
	c.Insert(b, 1, 20, true)
	// Refill b (way 0 after its insert), then a (now way 1): both must
	// still be present afterward if refills overwrite in place.
	c.Insert(b, 2, 21, true)
	c.Insert(a, 2, 11, true)
	if action, _, hit := c.Lookup(a, 2); !hit || action != 11 {
		t.Fatalf("a after refill: (%d, %v), want (11, hit)", action, hit)
	}
	if action, _, hit := c.Lookup(b, 2); !hit || action != 21 {
		t.Fatalf("b after refill: (%d, %v), want (21, hit)", action, hit)
	}
}

func TestFlowCacheStats(t *testing.T) {
	c := NewFlowCache(64)
	h := hdr(9)
	if _, _, hit := c.Lookup(h, 1); hit {
		t.Fatal("cold lookup hit")
	}
	c.Insert(h, 1, 1, true)
	if _, _, hit := c.Lookup(h, 1); !hit {
		t.Fatal("lookup at the fill epoch missed")
	}
	if _, _, hit := c.Lookup(h, 2); hit {
		t.Fatal("lookup at a later epoch hit without a change log")
	}
	if stale := c.StaleMisses(); stale != 1 {
		t.Fatalf("StaleMisses = %d, want 1: the cold miss is not stale", stale)
	}
}

func TestFlowCacheOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := NewFlowCache(1024)
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			h := hdr(i)
			if _, _, hit := c.Lookup(h, 3); !hit {
				c.Insert(h, 3, int32(i), true)
			}
		}
	}); n != 0 {
		t.Fatalf("cache lookup/insert allocates %v per run, want 0", n)
	}
}

// revalHdr is the flow the revalidation tests cache a decision for.
var revalHdr = rules.Header{SrcIP: 0x0A000001, DstIP: 0x0B000001, SrcPort: 1000, DstPort: 3, Proto: 6}

var (
	revalIn  = rules.Prefix{Addr: 0x0A000000, Len: 8} // holds revalHdr's source
	revalOut = rules.Prefix{Addr: 0x0C000000, Len: 8} // does not
)

// revalRule is a rule over src with every other field a wildcard.
func revalRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{ID: id, Priority: prio, SrcIP: src, SrcPort: rules.FullPortRange(),
		DstPort: rules.FullPortRange(), ProtoWildcard: true, Action: 1000 + id}
}

// revalDevice is a device holding rule 10 at priority 100 above rule
// 20 at 50, both matching revalHdr; empty when noMatch.
func revalDevice(t *testing.T, noMatch bool) *core.Device {
	t.Helper()
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	if !noMatch {
		for _, r := range []rules.Rule{revalRule(10, 100, revalIn), revalRule(20, 50, revalIn)} {
			if _, err := d.InsertRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// TestFlowCacheRevalidates caches one decision through an engine over a
// device, makes one change, and classifies the flow again. A decision
// the change cannot alter hits without a device lookup and is restamped
// to the new epoch; one it can alter is a stale miss, refilled from the
// device. core's TestRevalidate covers every kind of change; these are
// the engine's side of both outcomes.
func TestFlowCacheRevalidates(t *testing.T) {
	insert := func(r rules.Rule) func(*core.Device) error {
		return func(d *core.Device) error { _, err := d.InsertRule(r); return err }
	}
	del := func(id int) func(*core.Device) error {
		return func(d *core.Device) error { _, err := d.DeleteRule(id); return err }
	}
	for _, tc := range []struct {
		name    string
		noMatch bool
		change  func(*core.Device) error
		keep    bool
	}{
		{name: "non-matching insert", change: insert(revalRule(30, 200, revalOut)), keep: true},
		{name: "matching insert, higher priority", change: insert(revalRule(30, 101, revalIn))},
		{name: "delete the winner", change: del(10)},
		{name: "delete another rule", change: del(20), keep: true},
		{name: "no match, then a matching insert", noMatch: true, change: insert(revalRule(30, 1, revalIn))},
		{name: "no match, then a non-matching insert", noMatch: true, change: insert(revalRule(30, 1, revalOut)), keep: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := revalDevice(t, tc.noMatch)
			e := New(Config{Workers: 1, FlowCacheSize: 64, Backend: NewLookupBackend(d)})
			burst := []rules.Header{revalHdr}
			e.ProcessSync(0, burst) // fill
			if err := tc.change(d); err != nil {
				t.Fatal(err)
			}
			lookups := d.Stats().Lookups
			got := e.ProcessSync(0, burst)[0]
			refilled := d.Stats().Lookups - lookups
			action, ok := d.Lookup(revalHdr)
			if want := (Result{Action: int32(action), Matched: ok}); got != want {
				t.Fatalf("decision %+v, the device answers %+v", got, want)
			}
			s := e.Snapshot()
			if tc.keep {
				if s.CacheHits != 1 || s.StaleMisses != 0 || refilled != 0 {
					t.Fatalf("%d hits, %d stale misses, %d device lookups; want a revalidated hit", s.CacheHits, s.StaleMisses, refilled)
				}
				if _, _, hit := e.workers[0].cache.Lookup(revalHdr, d.Epoch()); !hit {
					t.Fatal("the revalidated entry was not restamped")
				}
			} else if s.CacheHits != 0 || s.StaleMisses != 1 || refilled != 1 {
				t.Fatalf("%d hits, %d stale misses, %d device lookups; want one stale miss, refilled", s.CacheHits, s.StaleMisses, refilled)
			}
		})
	}
}

// foreignBackend wraps a Backend as code outside this package would:
// only the two interface methods show through.
type foreignBackend struct{ Backend }

// TestFlowCacheFlushesWithoutChangeLog: over a cluster, whose epoch is
// its cut's sequence, a flowtable pipeline, or a Backend from outside the
// package, a publish that changes no decision still turns every cached
// decision into a stale miss.
func TestFlowCacheFlushesWithoutChangeLog(t *testing.T) {
	cfg := core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160}
	winner, other := revalRule(10, 100, revalIn), revalRule(30, 200, revalOut)
	cl := cluster.New(cluster.Config{Shards: 2, Device: cfg})
	p, err := flowtable.NewPipeline([]flowtable.TableConfig{{ID: 0, Device: cfg, Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}}})
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDevice(cfg)
	install := func(r rules.Rule) error {
		_, err := p.Install(0, flowtable.FlowRule{Rule: r, Instruction: flowtable.Terminal(r.Action)})
		return err
	}
	for _, tc := range []struct {
		name    string
		backend Backend
		insert  func(rules.Rule) error
	}{
		{"cluster", NewLookupBackend(cl), func(r rules.Rule) error { _, err := cl.InsertRule(r); return err }},
		{"pipeline", NewPipelineBackend(p), install},
		{"foreign", foreignBackend{NewLookupBackend(d)}, func(r rules.Rule) error { _, err := d.InsertRule(r); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.insert(winner); err != nil {
				t.Fatal(err)
			}
			e := New(Config{Workers: 1, FlowCacheSize: 64, Backend: tc.backend})
			burst := []rules.Header{revalHdr}
			e.ProcessSync(0, burst) // fill
			if err := tc.insert(other); err != nil {
				t.Fatal(err)
			}
			e.ProcessSync(0, burst)
			if s := e.Snapshot(); s.CacheHits != 0 || s.StaleMisses != 1 {
				t.Fatalf("%d hits, %d stale misses; want the flush: 0 hits, 1 stale miss", s.CacheHits, s.StaleMisses)
			}
		})
	}
}

// TestFlowCacheUnrankedEntryNeverRevalidates: an entry filled through
// Insert, or with a winner whose rank does not fit in 32 bits, carries
// no rank to check, so a revalidating cache still misses on it.
func TestFlowCacheUnrankedEntryNeverRevalidates(t *testing.T) {
	d := revalDevice(t, false)
	c := NewFlowCache(64)
	c.dev = d
	stamp := d.Epoch()
	ranked, wide := hdr(1), hdr(2)
	c.Insert(revalHdr, stamp, 1010, true)
	for _, f := range []struct {
		h    rules.Header
		rank core.Rank
	}{{ranked, core.Rank{Priority: 100, RuleID: 10}}, {wide, core.Rank{Priority: 1 << 40, RuleID: 10}}} {
		e := flowEntry{hdr: f.h, epoch: stamp, action: 1010, ok: true}
		e.setWinner(f.rank)
		c.insert(e)
	}
	d.SetTraceLabels(-1, -1) // publishes an epoch that changes no rule
	for _, f := range []struct {
		name string
		h    rules.Header
		want bool
	}{{"inserted", revalHdr, false}, {"ranked", ranked, true}, {"rank past 32 bits", wide, false}} {
		if _, _, hit := c.Lookup(f.h, d.Epoch()); hit != f.want {
			t.Errorf("%s entry: hit = %v, want %v", f.name, hit, f.want)
		}
	}
}
