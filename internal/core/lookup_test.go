package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

// loadedDevice returns a device bulk-loaded with a ClassBench ruleset
// plus a matching packet trace.
func loadedDevice(t testing.TB, size int) (*Device, []rules.Header) {
	t.Helper()
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: size, Seed: 77})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	return d, classbench.PacketTrace(rs, 256, 0.9, 78)
}

// classifyKey classifies one device-wide key: a LookupBatch of one.
func classifyKey(d *Device, k ternary.Key) (Entry, bool) {
	r := d.LookupBatch([]ternary.Key{k}, nil)[0]
	return r.Entry, r.OK
}

// headerKey is h's search key at d's key width, port predicates
// included, as the header classify loop encodes it.
func headerKey(d *Device, h rules.Header) ternary.Key {
	k := ternary.NewKey(d.cfg.KeyWidth)
	rules.EncodeHeaderInto(&k, h)
	return k
}

// paddedKey is a raw key (InsertWord's counterpart) widened to d's key
// width with trailing zeros, where a padded word keeps its wildcards.
func paddedKey(d *Device, s string) ternary.Key {
	k := ternary.NewKey(d.cfg.KeyWidth)
	k.LoadPadded(ternary.MustParseKey(s))
	return k
}

func TestLookupBatchMatchesSingles(t *testing.T) {
	d, headers := loadedDevice(t, 100)

	keys := make([]ternary.Key, len(headers))
	for i, h := range headers {
		keys[i] = headerKey(d, h)
	}
	batch := d.LookupBatch(keys, nil)
	hdrBatch := d.LookupHeaderBatch(headers, nil)
	if len(batch) != len(headers) || len(hdrBatch) != len(headers) {
		t.Fatalf("batch lengths %d/%d != %d", len(batch), len(hdrBatch), len(headers))
	}
	for i, h := range headers {
		e, ok := classifyKey(d, keys[i])
		if batch[i].OK != ok || batch[i].Entry.Rank != e.Rank || batch[i].Entry.Action != e.Action {
			t.Fatalf("header %d: LookupBatch %+v/%v != batch of one %+v/%v", i, batch[i].Entry, batch[i].OK, e, ok)
		}
		if hdrBatch[i].OK != ok || hdrBatch[i].Entry.Rank != e.Rank || hdrBatch[i].Entry.Action != e.Action {
			t.Fatalf("header %d: LookupHeaderBatch %+v/%v != batch of one %+v/%v", i, hdrBatch[i].Entry, hdrBatch[i].OK, e, ok)
		}
		action, aok := d.Lookup(h)
		if aok != ok || (ok && action != e.Action) {
			t.Fatalf("header %d: Lookup %d/%v != %d/%v", i, action, aok, e.Action, ok)
		}
	}
}

// TestLookupAllocFree pins the steady-state zero-allocation guarantee
// of every classify entry point.
func TestLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	d, headers := loadedDevice(t, 100)
	keys := make([]ternary.Key, len(headers))
	for i, h := range headers {
		keys[i] = headerKey(d, h)
	}
	results := make([]LookupResult, 0, len(headers))

	// Warm up: the pool creates the read scratch on first checkout.
	d.LookupBatch(keys, results[:0])

	if n := testing.AllocsPerRun(20, func() {
		results = d.LookupBatch(keys, results[:0])
	}); n != 0 {
		t.Errorf("LookupBatch allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		results = d.LookupHeaderBatch(headers, results[:0])
	}); n != 0 {
		t.Errorf("LookupHeaderBatch allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		d.Lookup(headers[0])
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f/op", n)
	}
}

// TestLookupBatchConcurrentResetStats drives batched lookups from
// several goroutines while stats are read and reset concurrently — the
// contract that every exported Device method is safe for concurrent
// use. Run with -race to make it meaningful.
func TestLookupBatchConcurrentResetStats(t *testing.T) {
	d, headers := loadedDevice(t, 100)
	keys := make([]ternary.Key, len(headers))
	for i, h := range headers {
		keys[i] = headerKey(d, h)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var results []LookupResult
			for iter := 0; iter < 50; iter++ {
				results = d.LookupBatch(keys[:32], results[:0])
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 100; iter++ {
			d.ResetStats()
			_ = d.Stats()
			_, _, _ = d.ArrayStats()
		}
	}()
	wg.Wait()
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAccountingPinned holds the modelled counts of a load and a
// lookup batch to pinned values: on ACL-1K and ACL-5K (the benchmark's
// tables) loaded into a Compact device, 4,096 headers through
// LookupHeaderBatch must leave ArrayStats() and Stats() exactly here,
// EnergyFJ bit for bit. A host optimization of the search or decision
// kernels may move time, never these; the key layout moves them (the
// port predicate columns store ACL-1K in 2,185 entries over 13
// subtables and ACL-5K in 12,026 over 68, so Searches = 4,096 × 13 and
// 4,096 × 68, Inserts the entry counts). The trace mixes uniform
// headers with rule-matching ones: uniform headers alone reach no
// priority decision on ACL-1K and 43 on ACL-5K, so they would leave
// the NOR counts unpinned. The same run bounds what the host actually
// searched (HostSearches): at most 5 subtables per lookup on ACL-1K
// and 13 on ACL-5K (4.12 and 12.58; 6.26 and 13.89 before the port
// predicates and the 9-bit filter groups), where the model charges 13
// and 68.
func TestLookupAccountingPinned(t *testing.T) {
	fj := math.Float64frombits
	for _, tc := range []struct {
		size  int
		array [3]sram.Stats // match, prio, global
		stats Stats
	}{
		{1000, [3]sram.Stats{
			{Cycles: 59570, RowReads: 1379, RowWrites: 4943, Searches: 53248, EnergyFJ: fj(0x41d81ad4d4fff170)},
			{Cycles: 16768, RowWrites: 3564, ColWrites: 3564, NOROps: 6076, EnergyFJ: fj(0x41b9d1cd91d70a22)},
			{Cycles: 3357, RowWrites: 13, ColWrites: 13, NOROps: 3318, EnergyFJ: fj(0x414d1f15dc28f6ad)},
		}, Stats{Lookups: 4096, Inserts: 2185, Reallocations: 1379, DirectInserts: 806,
			ReallocInserts: 1379, UpdateCycles: 9313, LookupCycles: 4096, FreshSubtables: 13}},
		{5000, [3]sram.Stats{
			{Cycles: 316111, RowReads: 8519, RowWrites: 29064, Searches: 278528, EnergyFJ: fj(0x420053a433068c9b)},
			{Cycles: 81999, RowWrites: 20545, ColWrites: 20545, NOROps: 20364, EnergyFJ: fj(0x41e2d78462eb850e)},
			{Cycles: 3530, RowWrites: 68, ColWrites: 68, NOROps: 3326, EnergyFJ: fj(0x416104dbc147ae47)},
		}, Stats{Lookups: 4096, Inserts: 12026, Reallocations: 8519, DirectInserts: 3507,
			ReallocInserts: 8519, UpdateCycles: 53116, LookupCycles: 4096, FreshSubtables: 68}},
	} {
		rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: tc.size, Seed: 5})
		d := NewDevice(Compact())
		for _, r := range rs.Rules {
			if _, err := d.InsertRule(r); err != nil {
				t.Fatalf("ACL-%d load: %v", tc.size, err)
			}
		}
		d.LookupHeaderBatch(classbench.PacketTrace(rs, 4096, 0.8, 1), nil)

		var got [3]sram.Stats
		got[0], got[1], got[2] = d.ArrayStats()
		for i, name := range []string{"match", "prio", "global"} {
			// != on EnergyFJ is bitwise for the finite non-zero values pinned.
			if got[i] != tc.array[i] {
				t.Errorf("ACL-%d %s array stats:\ngot  %+v\nwant %+v", tc.size, name, got[i], tc.array[i])
			}
		}
		if got := d.Stats(); got != tc.stats {
			t.Errorf("ACL-%d device stats:\ngot  %+v\nwant %+v", tc.size, got, tc.stats)
		}
		// The model charged every active subtable per lookup, bit for bit
		// as above; the host searched only those the bit-selection filter
		// admits.
		limit := 5.0
		if tc.size == 5000 {
			limit = 13
		}
		host := float64(d.HostSearches()) / float64(tc.stats.Lookups)
		t.Logf("ACL-%d: host searches %.2f per lookup, model %d", tc.size, host, tc.array[0].Searches/tc.stats.Lookups)
		if host > limit {
			t.Errorf("ACL-%d: host searched %.2f subtables per lookup, want <= %.0f", tc.size, host, limit)
		}
	}
}

// TestRowsPerRule logs and bounds what the port predicate columns save
// on the benchmark's tables (ACL-1K and ACL-5K, seed 5, in a Compact
// device): at most 2.5 rows per rule on average and 16 at the 99th
// percentile, and at most 80 active subtables on ACL-5K. The flat
// TupleBits expansion is logged beside them.
func TestRowsPerRule(t *testing.T) {
	for _, size := range []int{1000, 5000} {
		rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: size, Seed: 5})
		d := NewDevice(Compact())
		rows, flat := make([]int, len(rs.Rules)), make([]int, len(rs.Rules))
		total, flatTotal := 0, 0
		for i, r := range rs.Rules {
			if _, err := d.InsertRule(r); err != nil {
				t.Fatalf("ACL-%d load: %v", size, err)
			}
			rows[i], flat[i] = r.ExpansionCountWidth(d.cfg.KeyWidth), r.ExpansionCount()
			total += rows[i]
			flatTotal += flat[i]
		}
		if d.Len() != total {
			t.Fatalf("ACL-%d: device holds %d entries, ExpansionCountWidth sums to %d", size, d.Len(), total)
		}
		p99 := func(xs []int) int {
			sort.Ints(xs)
			return xs[(len(xs)*99+99)/100-1]
		}
		mean, tail := float64(total)/float64(len(rows)), p99(rows)
		t.Logf("ACL-%d: %.2f rows per rule, p99 %d, %d active subtables (flat: %.2f, p99 %d)",
			size, mean, tail, d.ActiveSubtables(), float64(flatTotal)/float64(len(flat)), p99(flat))
		if mean > 2.5 || tail > 16 {
			t.Errorf("ACL-%d: %.2f rows per rule, p99 %d; want <= 2.5 and <= 16", size, mean, tail)
		}
		if size == 5000 && d.ActiveSubtables() > 80 {
			t.Errorf("ACL-5000: %d active subtables, want <= 80", d.ActiveSubtables())
		}
	}
}
