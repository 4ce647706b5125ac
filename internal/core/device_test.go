package core

import (
	"errors"
	"math/rand"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

// smallConfig keeps tests fast: 8 subtables of 8 slots, 160-bit keys.
func smallConfig() Config {
	return Config{Subtables: 8, SubtableCapacity: 8, KeyWidth: 160, FrequencyMHz: 500}
}

func mkRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio, Action: id * 10,
		SrcIP: src, DstIP: rules.Prefix{Len: 0},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func TestPrototypeConfig(t *testing.T) {
	cfg := Prototype()
	if cfg.Subtables != 256 || cfg.SubtableCapacity != 256 || cfg.KeyWidth != 640 {
		t.Fatalf("prototype config wrong: %+v", cfg)
	}
	d := NewDevice(cfg)
	if d.CapacityEntries() != 65536 {
		t.Fatalf("capacity = %d, want 64K", d.CapacityEntries())
	}
	if got := d.CyclesToNanos(5); got != 10 {
		t.Fatalf("5 cycles at 500MHz = %v ns, want 10", got)
	}
}

func TestInsertLookupDelete(t *testing.T) {
	d := NewDevice(smallConfig())
	broad := mkRule(1, 1, rules.Prefix{Len: 0})
	narrow := mkRule(2, 9, rules.Prefix{Addr: 0x0A000000, Len: 8})

	res, err := d.InsertRule(broad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInsertDirect || res.Cycles != 3 {
		t.Fatalf("first insert: %+v", res)
	}
	if _, err := d.InsertRule(narrow); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if act, ok := d.Lookup(rules.Header{SrcIP: 0x0A010101}); !ok || act != 20 {
		t.Fatalf("lookup = %d,%v want 20", act, ok)
	}
	if act, ok := d.Lookup(rules.Header{SrcIP: 0x0B010101}); !ok || act != 10 {
		t.Fatalf("lookup = %d,%v want 10", act, ok)
	}
	if res, err := d.DeleteRule(2); err != nil || res.Cycles != 1 {
		t.Fatalf("delete: %+v %v", res, err)
	}
	if act, ok := d.Lookup(rules.Header{SrcIP: 0x0A010101}); !ok || act != 10 {
		t.Fatalf("lookup after delete = %d,%v want 10", act, ok)
	}
	if _, err := d.DeleteRule(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMiss(t *testing.T) {
	d := NewDevice(smallConfig())
	if _, ok := d.Lookup(rules.Header{}); ok {
		t.Fatal("empty device matched")
	}
	if _, err := d.InsertRule(mkRule(1, 5, rules.Prefix{Addr: 0xC0000000, Len: 8})); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup(rules.Header{SrcIP: 0x0A000000}); ok {
		t.Fatal("non-matching header matched")
	}
}

// Fill one subtable's interval beyond capacity: the 9th insert must
// evict exactly one rule into a second subtable (the 5-cycle path).
func TestEvictionPath(t *testing.T) {
	d := NewDevice(smallConfig())
	for i := 0; i < 8; i++ {
		if _, err := d.InsertRule(mkRule(i, 10+i, rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	if d.ActiveSubtables() != 1 {
		t.Fatalf("active subtables = %d, want 1", d.ActiveSubtables())
	}
	// Insert below the current max: target is the (full) single
	// subtable, so its max (prio 17) is evicted into a fresh table.
	res, err := d.InsertRule(mkRule(100, 5, rules.Prefix{Len: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInsertRealloc || res.Cycles != 5 || res.Reallocated != 1 {
		t.Fatalf("eviction insert: %+v", res)
	}
	if d.ActiveSubtables() != 2 {
		t.Fatalf("active subtables = %d, want 2", d.ActiveSubtables())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// All 9 rules still resolve correctly: highest priority wins.
	if act, ok := d.Lookup(rules.Header{}); !ok || act != 70 {
		t.Fatalf("winner = %d,%v want 70 (prio 17)", act, ok)
	}
}

// A rank above every interval lands in the top subtable when it has
// room (3 cycles) or a fresh one when full — never an eviction.
func TestTopExtension(t *testing.T) {
	d := NewDevice(smallConfig())
	for i := 0; i < 8; i++ {
		if _, err := d.InsertRule(mkRule(i, 10+i, rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.InsertRule(mkRule(50, 999, rules.Prefix{Len: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInsertDirect || res.Reallocated != 0 || res.FreshTables != 1 {
		t.Fatalf("top insert above full table: %+v", res)
	}
	if act, ok := d.Lookup(rules.Header{}); !ok || act != 500 {
		t.Fatalf("winner = %d,%v want 500", act, ok)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceFull(t *testing.T) {
	cfg := Config{Subtables: 2, SubtableCapacity: 2, KeyWidth: 160}
	d := NewDevice(cfg)
	inserted := 0
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, err := d.InsertRule(mkRule(i, i+1, rules.Prefix{Len: 0})); err != nil {
			lastErr = err
			break
		}
		inserted++
	}
	if !errors.Is(lastErr, ErrFull) {
		t.Fatalf("expected ErrFull, got %v after %d inserts", lastErr, inserted)
	}
	if inserted < 3 {
		t.Fatalf("only %d rules fit in a 4-slot device", inserted)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatalf("device inconsistent after full: %v", err)
	}
}

func TestSubtableReleaseOnEmpty(t *testing.T) {
	d := NewDevice(smallConfig())
	if _, err := d.InsertRule(mkRule(1, 5, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if d.ActiveSubtables() != 1 {
		t.Fatal("subtable not activated")
	}
	if _, err := d.DeleteRule(1); err != nil {
		t.Fatal(err)
	}
	if d.ActiveSubtables() != 0 {
		t.Fatal("emptied subtable not released")
	}
	if d.Len() != 0 {
		t.Fatal("Len != 0")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// The released subtable is reusable.
	if _, err := d.InsertRule(mkRule(2, 7, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	if act, ok := d.Lookup(rules.Header{}); !ok || act != 20 {
		t.Fatalf("lookup after reuse = %d,%v", act, ok)
	}
}

func TestDeleteMaxRefreshesInterval(t *testing.T) {
	d := NewDevice(smallConfig())
	for i := 0; i < 3; i++ {
		if _, err := d.InsertRule(mkRule(i, 10*(i+1), rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.DeleteRule(2); err != nil { // delete the max (prio 30)
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if act, ok := d.Lookup(rules.Header{}); !ok || act != 10 {
		t.Fatalf("new winner = %d,%v want 10 (prio 20)", act, ok)
	}
}

func TestRangeExpansionRollbackOnFull(t *testing.T) {
	cfg := Config{Subtables: 1, SubtableCapacity: 4, KeyWidth: 160}
	d := NewDevice(cfg)
	// This rule expands to 16 entries (port range 1025-65535, one past
	// the predicate's reach) but only 4 slots exist: insertion must fail
	// and leave the device empty.
	r := mkRule(1, 5, rules.Prefix{Len: 0})
	r.DstPort = rules.PortRange{Lo: 1025, Hi: 0xFFFF}
	if n := r.ExpansionCountWidth(cfg.KeyWidth); n <= cfg.SubtableCapacity {
		t.Fatalf("rule expands to %d entries, want more than the %d slots", n, cfg.SubtableCapacity)
	}
	if _, err := d.InsertRule(r); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("partial insert left %d entries", d.Len())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// 1024-65535 is the dst-port predicate row alone: one entry.
	r.DstPort = rules.PortRange{Lo: 1024, Hi: 0xFFFF}
	if _, err := d.InsertRule(r); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("1024-65535 stored %d entries, want 1", d.Len())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := NewDevice(smallConfig())
	for i := 0; i < 9; i++ {
		if _, err := d.InsertRule(mkRule(i, 10+i, rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	d.Lookup(rules.Header{})
	s := d.Stats()
	if s.Inserts != 9 || s.Lookups != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.DirectInserts+s.ReallocInserts != s.Inserts {
		t.Fatalf("insert classes don't add up: %+v", s)
	}
	if s.UpdateCycles != 3*s.DirectInserts+5*s.ReallocInserts {
		t.Fatalf("cycle accounting wrong: %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats failed")
	}
}

// Conformance: CATCAM lookups must equal the linear reference across a
// random ClassBench workload with churn.
func TestDeviceConformance(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 150, Seed: 201})
	trace := classbench.UpdateTrace(rs, 200, 202)
	headers := classbench.PacketTrace(rs, 200, 0.8, 203)

	// Interval fragmentation makes a nearly-sized device fail early (the
	// paper's §VIII-B occupancy effect), so conformance runs with ample
	// headroom: 64 subtables × 64 slots for ~400 entries.
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160, FrequencyMHz: 500})
	ref := &rules.Ruleset{}
	insert := func(r rules.Rule) {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("insert %d: %v", r.ID, err)
		}
		ref.Rules = append(ref.Rules, r)
	}
	remove := func(id int) {
		if _, err := d.DeleteRule(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		for i, r := range ref.Rules {
			if r.ID == id {
				ref.Rules = append(ref.Rules[:i], ref.Rules[i+1:]...)
				break
			}
		}
	}
	check := func(stage string) {
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, h := range headers {
			want, wantOK := ref.Best(h)
			got, ok := d.Lookup(h)
			if ok != wantOK || (ok && got != want.Action) {
				t.Fatalf("%s: lookup %+v = (%d,%v), reference (%d,%v)",
					stage, h, got, ok, want.Action, wantOK)
			}
		}
	}
	for _, r := range rs.Rules {
		insert(r)
	}
	check("after load")
	for i, u := range trace {
		if u.Op == classbench.OpInsert {
			insert(u.Rule)
		} else {
			remove(u.Rule.ID)
		}
		if i%50 == 49 {
			check("mid-trace")
		}
	}
	check("after trace")
}

// Property: at most one reallocation per inserted entry, cycles in
// {3,5} per entry, deletes 1 per entry — under heavy random churn.
func TestQuickO1UpdateGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := NewDevice(Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	live := map[int]int{} // id -> expansion count
	nextID := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			r := mkRule(nextID, 1+rng.Intn(65535), rules.Prefix{Addr: rng.Uint32(), Len: rng.Intn(33)}.Canonical())
			res, err := d.InsertRule(r)
			if errors.Is(err, ErrFull) {
				// drain a little and continue
				for id := range live {
					if _, err := d.DeleteRule(id); err != nil {
						t.Fatal(err)
					}
					delete(live, id)
					break
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Reallocated > 1 {
				t.Fatalf("insert reallocated %d rules (O(1) broken)", res.Reallocated)
			}
			if res.Cycles != 3 && res.Cycles != 5 {
				t.Fatalf("insert cycles = %d", res.Cycles)
			}
			live[nextID] = 1
			nextID++
		} else {
			var id int
			for k := range live {
				id = k
				break
			}
			res, err := d.DeleteRule(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != 1 {
				t.Fatalf("delete cycles = %d", res.Cycles)
			}
			delete(live, id)
		}
		if step%250 == 249 {
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

// The occupancy behaviour of §VIII-B: fill until failure; occupancy
// must be meaningfully below 100% but well above half.
func TestFillToFailureOccupancy(t *testing.T) {
	d := NewDevice(Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	rng := rand.New(rand.NewSource(31))
	id := 0
	for {
		r := mkRule(id, 1+rng.Intn(1<<20), rules.Prefix{Len: 0})
		if _, err := d.InsertRule(r); err != nil {
			break
		}
		id++
	}
	occ := d.Occupancy()
	if occ < 0.5 || occ >= 1.0 {
		t.Fatalf("fill-to-failure occupancy = %.2f, expect (0.5, 1)", occ)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateClassCycles(t *testing.T) {
	if ClassInsertDirect.Cycles() != 3 || ClassInsertRealloc.Cycles() != 5 || ClassDelete.Cycles() != 1 {
		t.Fatal("cycle classes wrong")
	}
	if UpdateClass(99).Cycles() != 0 {
		t.Fatal("unknown class nonzero")
	}
}

// Ablation: with ChainedReallocation an insert can cascade through
// multiple full subtables — the O(k) behaviour the paper's fresh-
// subtable assignment avoids.
func TestChainedReallocationAblation(t *testing.T) {
	mkChainDevice := func(chained bool) *Device {
		d := NewDevice(Config{Subtables: 8, SubtableCapacity: 4, KeyWidth: 160,
			ChainedReallocation: chained})
		// Build 4 dense subtables by ascending-priority load.
		for i := 0; i < 16; i++ {
			if _, err := d.InsertRule(mkRule(i, 10*(i+1), rules.Prefix{Len: 0})); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	chained := mkChainDevice(true)
	// Insert below everything: target = bottom table (full), next full,
	// next full... the chain should ripple to the top.
	res, err := chained.InsertRule(mkRule(100, 5, rules.Prefix{Len: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocated < 2 {
		t.Fatalf("chained insert reallocated %d, want a chain (>=2)", res.Reallocated)
	}
	if err := chained.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Highest rule is rule 15 (prio 160, action 150).
	if got, ok := chained.Lookup(rules.Header{}); !ok || got != 150 {
		t.Fatalf("winner after chain = %d,%v want 150", got, ok)
	}

	paper := mkChainDevice(false)
	res, err = paper.InsertRule(mkRule(100, 5, rules.Prefix{Len: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocated != 1 {
		t.Fatalf("paper design reallocated %d, want exactly 1", res.Reallocated)
	}
	if err := paper.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Chained mode must still preserve correctness across churn.
func TestChainedModeConformance(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 80, Seed: 301})
	headers := classbench.PacketTrace(rs, 150, 0.8, 302)
	d := NewDevice(Config{Subtables: 32, SubtableCapacity: 32, KeyWidth: 160,
		ChainedReallocation: true})
	ref := &rules.Ruleset{}
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("insert %d: %v", r.ID, err)
		}
		ref.Rules = append(ref.Rules, r)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, h := range headers {
		want, wantOK := ref.Best(h)
		got, ok := d.Lookup(h)
		if ok != wantOK || (ok && got != want.Action) {
			t.Fatalf("chained-mode lookup diverges on %+v", h)
		}
	}
}

// The chained-ablation counters, pinned with bench.SchedulingAblation's
// fill loop at seed 1 on a 64×64 device. Every figure is charged once
// per request entry from the request's own UpdateResult, so the device
// totals equal the sums over results; in particular a reallocation
// chain's fresh subtable is counted once, not once per hop.
func TestSchedulingAblationCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		chained bool
		rules   int
		want    Stats
		digest  uint64 // FNV-1a over every request's (class, cycles, reallocated, fresh, subtable)
	}{
		{"paper", false, 3104, Stats{Inserts: 3104, Reallocations: 2185, DirectInserts: 919,
			ReallocInserts: 2185, UpdateCycles: 13682, FreshSubtables: 64}, 13020085460687641667},
		{"chained", true, 4096, Stats{Inserts: 4096, Reallocations: 65686, DirectInserts: 201,
			ReallocInserts: 3895, UpdateCycles: 329033, FreshSubtables: 64}, 13793649868822650981},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160,
				ChainedReallocation: c.chained})
			reg := telemetry.NewRegistry()
			d.AttachTelemetry(reg, nil, nil)
			rng := rand.New(rand.NewSource(1))
			var sum UpdateResult
			digest := uint64(14695981039346656037)
			inserted := 0
			for id := 0; ; id++ {
				r := rules.Rule{
					ID: id, Priority: 1 + rng.Intn(1<<24), Action: id,
					SrcIP:   rules.Prefix{Addr: rng.Uint32(), Len: 16}.Canonical(),
					SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
					ProtoWildcard: true,
				}
				res, err := d.InsertRule(r)
				if err != nil {
					break
				}
				inserted++
				sum.Cycles += res.Cycles
				sum.Reallocated += res.Reallocated
				sum.FreshTables += res.FreshTables
				for _, v := range []uint64{uint64(res.Class), res.Cycles, uint64(res.Reallocated),
					uint64(res.FreshTables), uint64(res.Subtable)} {
					digest = (digest ^ v) * 1099511628211
				}
			}
			if inserted != c.rules {
				t.Fatalf("inserted %d rules, want %d", inserted, c.rules)
			}
			if got := d.Stats(); got != c.want {
				t.Fatalf("stats = %+v\n want %+v", got, c.want)
			}
			if digest != c.digest {
				t.Fatalf("per-request UpdateResult digest = %d, want %d", digest, c.digest)
			}
			st := d.Stats()
			if sum.Cycles != st.UpdateCycles || uint64(sum.Reallocated) != st.Reallocations {
				t.Fatalf("results sum to %d cycles / %d moves, stats say %d / %d",
					sum.Cycles, sum.Reallocated, st.UpdateCycles, st.Reallocations)
			}
			fresh := reg.Snapshot().Counters["catcam_fresh_subtables_total"]
			if n := uint64(d.ActiveSubtables()); st.FreshSubtables != n ||
				uint64(sum.FreshTables) != n || fresh != n {
				t.Fatalf("fresh subtables: stats %d, results %d, counter %d, active %d",
					st.FreshSubtables, sum.FreshTables, fresh, n)
			}
		})
	}
}
