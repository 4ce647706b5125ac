package core

import (
	"math"
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

// classifyKey classifies one key: a LookupBatch of one.
func classifyKey(d *Device, k ternary.Key) (Entry, bool) {
	r := d.LookupBatch([]ternary.Key{k}, nil)[0]
	return r.Entry, r.OK
}

func TestLookupBatchMatchesSingles(t *testing.T) {
	d, headers := loadedDevice(t, 100)

	keys := make([]ternary.Key, len(headers))
	for i, h := range headers {
		keys[i] = rules.EncodeHeader(h)
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
		keys[i] = rules.EncodeHeader(h)
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
		keys[i] = rules.EncodeHeader(h)
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
// lookup batch to the values the pre-compaction kernel produced: on
// ACL-1K and ACL-5K (the benchmark's tables) loaded into a Compact
// device, 4,096 headers through LookupHeaderBatch must leave
// ArrayStats() and Stats() exactly here, EnergyFJ bit for bit. A host
// optimization of the search or decision kernels may move time, never
// these. The trace mixes uniform headers with rule-matching ones:
// uniform headers alone reach no priority decision on ACL-1K and 43
// on ACL-5K, so they would leave the NOR counts unpinned. The same run
// bounds what the host actually searched (HostSearches): at most 8
// subtables per lookup on ACL-1K and 25 on ACL-5K, where the model
// charges 30 and 132.
func TestLookupAccountingPinned(t *testing.T) {
	fj := math.Float64frombits
	for _, tc := range []struct {
		size  int
		array [3]sram.Stats // match, prio, global
		stats Stats
	}{
		{1000, [3]sram.Stats{
			{Cycles: 137922, RowReads: 3374, RowWrites: 11668, Searches: 122880, EnergyFJ: fj(0x41ebaf31dd00124d)},
			{Cycles: 34948, RowWrites: 8294, ColWrites: 8294, NOROps: 10066, EnergyFJ: fj(0x41ce523cacd1eb52)},
			{Cycles: 3408, RowWrites: 30, ColWrites: 30, NOROps: 3318, EnergyFJ: fj(0x415477f66147ae8a)},
		}, Stats{Lookups: 4096, Inserts: 4920, Reallocations: 3374, DirectInserts: 1546,
			ReallocInserts: 3374, UpdateCycles: 21508, LookupCycles: 4096, FreshSubtables: 30}},
		{5000, [3]sram.Stats{
			{Cycles: 612734, RowReads: 16392, RowWrites: 55670, Searches: 540672, EnergyFJ: fj(0x420f6a2d4465dba3)},
			{Cycles: 153944, RowWrites: 39278, ColWrites: 39278, NOROps: 36110, EnergyFJ: fj(0x41f20855a6affff5)},
			{Cycles: 3722, RowWrites: 132, ColWrites: 132, NOROps: 3326, EnergyFJ: fj(0x416c1f01d47ae179)},
		}, Stats{Lookups: 4096, Inserts: 22886, Reallocations: 16392, DirectInserts: 6494,
			ReallocInserts: 16392, UpdateCycles: 101442, LookupCycles: 4096, FreshSubtables: 132}},
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
		limit := 8.0
		if tc.size == 5000 {
			limit = 25
		}
		host := float64(d.HostSearches()) / float64(tc.stats.Lookups)
		t.Logf("ACL-%d: host searches %.2f per lookup, model %d", tc.size, host, tc.array[0].Searches/tc.stats.Lookups)
		if host > limit {
			t.Errorf("ACL-%d: host searched %.2f subtables per lookup, want <= %.0f", tc.size, host, limit)
		}
	}
}
