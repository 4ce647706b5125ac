package core

import (
	"errors"
	"math/rand"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

// fillDevice inserts n distinct-priority rules and returns how many
// landed before the device filled.
func fillDevice(t *testing.T, d *Device, n int) int {
	t.Helper()
	inserted := 0
	for i := 0; i < n; i++ {
		r := mkRule(i+1, i+1, rules.Prefix{Addr: uint32(i) << 8, Len: 24})
		if _, err := d.InsertRule(r); err != nil {
			if errors.Is(err, ErrFull) {
				break
			}
			t.Fatal(err)
		}
		inserted++
	}
	return inserted
}

func TestDeriveStructureBasics(t *testing.T) {
	d := NewDevice(smallConfig())
	n := fillDevice(t, d, 20)

	s := d.DeriveStructure(nil)
	if s.Epoch != d.Epoch() {
		t.Fatalf("epoch = %d, want %d", s.Epoch, d.Epoch())
	}
	if s.Entries != n || s.Entries != d.Len() {
		t.Fatalf("entries = %d, want %d", s.Entries, n)
	}
	if s.Capacity != d.CapacityEntries() || s.TotalSubtables != 8 || s.SubtableCapacity != 8 {
		t.Fatalf("capacity geometry wrong: %+v", s)
	}
	if s.ActiveSubtables != d.ActiveSubtables() || s.FreeSubtables != s.TotalSubtables-s.ActiveSubtables {
		t.Fatalf("subtable counts wrong: active %d free %d", s.ActiveSubtables, s.FreeSubtables)
	}
	if want := float64(n) / float64(s.Capacity); s.Occupancy != want {
		t.Fatalf("occupancy = %v, want %v", s.Occupancy, want)
	}
	if len(s.Subtables) != s.ActiveSubtables {
		t.Fatalf("%d subtable rows for %d active", len(s.Subtables), s.ActiveSubtables)
	}

	// Per-subtable rows: entries sum to the total, intervals ascend, and
	// a fully distinct-priority ACL-like fill cares about source bits.
	sum, prevMax := 0, -1
	for _, sub := range s.Subtables {
		sum += sub.Entries
		if sub.Entries > sub.Capacity || (sub.Full != (sub.Entries == sub.Capacity)) {
			t.Fatalf("subtable %d fill inconsistent: %+v", sub.ID, sub)
		}
		if sub.MaxPriority <= prevMax {
			t.Fatalf("interval order broken at subtable %d: max %d after %d", sub.ID, sub.MaxPriority, prevMax)
		}
		prevMax = sub.MaxPriority
		if sub.IntervalWidth < 1 {
			t.Fatalf("interval width %d < 1", sub.IntervalWidth)
		}
		if sub.Entries > 0 && (sub.CareBits == 0 || sub.CareBits > sub.TernaryBits) {
			t.Fatalf("care accounting wrong: %+v", sub)
		}
		if sub.Shard != -1 || sub.Table != -1 || sub.Index != sub.ID {
			t.Fatalf("standalone tagging wrong: %+v", sub)
		}
	}
	if sum != s.Entries {
		t.Fatalf("subtable entries sum %d != total %d", sum, s.Entries)
	}
	if s.FragIndex <= 0 || s.FragIndex > 1 {
		t.Fatalf("frag index %v out of range", s.FragIndex)
	}
	if s.CareDensity <= 0 || s.CareDensity >= 1 {
		t.Fatalf("care density %v out of range (prefixes wildcard low bits)", s.CareDensity)
	}
	if s.MatchRowWrites == 0 || s.PrioRowWrites == 0 || s.GlobalColWrites == 0 {
		t.Fatalf("write pressure not stamped: %+v", s)
	}
	if s.Ops.Inserts != uint64(n) {
		t.Fatalf("ops inserts = %d, want %d", s.Ops.Inserts, n)
	}
}

func TestDeriveStructureChurnAccounting(t *testing.T) {
	d := NewDevice(smallConfig())
	n := fillDevice(t, d, 12)

	s := d.DeriveStructure(nil)
	// One publication per successful update (plus any rollback
	// republishes); each publication either rebuilds or shares every
	// allocated view.
	if s.Churn.Publishes < uint64(n) {
		t.Fatalf("publishes = %d, want >= %d", s.Churn.Publishes, n)
	}
	if s.Churn.ViewsRebuilt == 0 {
		t.Fatal("no views rebuilt despite inserts dirtying subtables")
	}
	if s.Churn.ViewsShared == 0 {
		t.Fatal("no views shared: COW publication is not pointer-sharing clean subtables")
	}
	if s.Churn.GlobalRebuilds == 0 {
		t.Fatal("no global rebuilds despite subtable assignments")
	}

	// Lookup batches check scratch out of the pool: batches grow with
	// traffic, allocations stay bounded by pool churn.
	if s.Churn.ScratchBatches != 0 {
		t.Fatalf("scratch batches = %d before any lookup", s.Churn.ScratchBatches)
	}
	for i := 0; i < 50; i++ {
		d.Lookup(rules.Header{SrcIP: uint32(i) << 8})
	}
	s = d.DeriveStructure(s)
	if s.Churn.ScratchBatches < 50 {
		t.Fatalf("scratch batches = %d after 50 lookups", s.Churn.ScratchBatches)
	}
	if s.Churn.ScratchAllocs == 0 || s.Churn.ScratchAllocs > s.Churn.ScratchBatches {
		t.Fatalf("scratch allocs = %d of %d batches", s.Churn.ScratchAllocs, s.Churn.ScratchBatches)
	}
}

func TestDeriveStructureFullRuns(t *testing.T) {
	cfg := Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160, FrequencyMHz: 500}
	d := NewDevice(cfg)
	// Fill the device completely: every active subtable full, so the
	// full run spans all of them and the frag index saturates.
	n := fillDevice(t, d, cfg.Subtables*cfg.SubtableCapacity+8)
	if n != cfg.Subtables*cfg.SubtableCapacity {
		t.Fatalf("filled %d of %d slots", n, cfg.Subtables*cfg.SubtableCapacity)
	}
	s := d.DeriveStructure(nil)
	if s.FullSubtables != s.ActiveSubtables || s.MaxFullRun != s.ActiveSubtables {
		t.Fatalf("full accounting: full %d run %d active %d", s.FullSubtables, s.MaxFullRun, s.ActiveSubtables)
	}
	if s.Occupancy != 1 || s.FragIndex != 1 {
		t.Fatalf("saturated device: occupancy %v frag %v, want 1,1", s.Occupancy, s.FragIndex)
	}
}

// TestDeriveStructureReuseAllocs proves the sampling loop contract: a
// reused Structure derives without allocating once its slices are
// warmed.
func TestDeriveStructureReuseAllocs(t *testing.T) {
	d := NewDevice(smallConfig())
	fillDevice(t, d, 20)
	s := d.DeriveStructure(nil)
	if n := testing.AllocsPerRun(100, func() { s = d.DeriveStructure(s) }); n != 0 {
		t.Fatalf("DeriveStructure allocates %v/op with a reused Structure", n)
	}
}

// TestResetStatsClearsStructure is the no-stale-carryover check for
// ResetStats: churn and op counters restart from zero and registered
// hooks fire.
func TestResetStatsClearsStructure(t *testing.T) {
	d := NewDevice(smallConfig())
	hooks := 0
	d.OnStatsReset(func() { hooks++ })
	fillDevice(t, d, 12)
	for i := 0; i < 10; i++ {
		d.Lookup(rules.Header{SrcIP: uint32(i)})
	}

	d.ResetStats()
	if hooks != 1 {
		t.Fatalf("reset hook ran %d times, want 1", hooks)
	}
	s := d.DeriveStructure(nil)
	if s.Churn != (StructuralChurn{}) {
		t.Fatalf("churn survives ResetStats: %+v", s.Churn)
	}
	if s.Ops.Inserts != 0 || s.Ops.Lookups != 0 {
		t.Fatalf("ops survive ResetStats: %+v", s.Ops)
	}
	// Structure itself (entries, occupancy) must survive: resets clear
	// statistics, not the stored table.
	if s.Entries == 0 || s.ActiveSubtables == 0 {
		t.Fatalf("ResetStats destroyed structure: %+v", s)
	}
}

// TestResetArrayStatsClearsWritePressure is the no-stale-carryover
// check for ResetArrayStats: the write-pressure stamps riding the
// published epoch re-publish as zeros instead of serving stale values
// from pointer-shared views.
func TestResetArrayStatsClearsWritePressure(t *testing.T) {
	d := NewDevice(smallConfig())
	hooks := 0
	d.OnStatsReset(func() { hooks++ })
	fillDevice(t, d, 12)

	s := d.DeriveStructure(nil)
	if s.MatchRowWrites == 0 || s.GlobalColWrites == 0 {
		t.Fatalf("no write pressure before reset: %+v", s)
	}
	epoch := s.Epoch

	d.ResetArrayStats()
	if hooks != 1 {
		t.Fatalf("reset hook ran %d times, want 1", hooks)
	}
	s = d.DeriveStructure(s)
	if s.Epoch <= epoch {
		t.Fatalf("ResetArrayStats did not republish: epoch %d -> %d", epoch, s.Epoch)
	}
	if s.MatchRowWrites != 0 || s.PrioRowWrites != 0 || s.PrioColWrites != 0 ||
		s.GlobalRowWrites != 0 || s.GlobalColWrites != 0 {
		t.Fatalf("stale write pressure after ResetArrayStats: %+v", s)
	}
	for _, sub := range s.Subtables {
		if sub.MatchRowWrites != 0 || sub.PrioRowWrites != 0 || sub.PrioColWrites != 0 {
			t.Fatalf("stale per-subtable write pressure: %+v", sub)
		}
	}
	// And fresh writes stamp again from zero.
	fillDevice(t, d, 14)
	s = d.DeriveStructure(s)
	if s.MatchRowWrites == 0 {
		t.Fatal("write pressure not re-stamped after reset")
	}
}

// TestEpochGaugeExported: the published snapshot epoch is a /metrics
// series, not just a /healthz field — it tracks every publication,
// the attach's included.
func TestEpochGaugeExported(t *testing.T) {
	d := NewDevice(smallConfig())
	fillDevice(t, d, 4)
	reg := telemetry.NewRegistry()
	d.AttachTelemetry(reg, nil, nil)
	g := func() int64 { return reg.Snapshot().Gauges["catcam_epoch"] }
	if got := g(); got != int64(d.Epoch()) {
		t.Fatalf("catcam_epoch = %d after attach, want %d", got, d.Epoch())
	}
	fillDevice(t, d, 3)
	if got := g(); got != int64(d.Epoch()) || got == 0 {
		t.Fatalf("catcam_epoch = %d after updates, want %d", got, d.Epoch())
	}
}

func TestCarePerPosition(t *testing.T) {
	d := NewDevice(smallConfig())
	fillDevice(t, d, 10)
	prof := d.CarePerPosition(nil)
	if len(prof) != 160 {
		t.Fatalf("profile width %d, want 160", len(prof))
	}
	var total uint64
	for _, c := range prof {
		total += c
	}
	s := d.DeriveStructure(nil)
	if total != s.CareBits {
		t.Fatalf("per-position sum %d != aggregate care bits %d", total, s.CareBits)
	}
}

// TestDeriveStructureUnderChurn races the derivation pass against a
// writer: every derived observation must be internally consistent
// because it comes from one frozen epoch, whatever publishes race it.
// Run with -race for the memory-model half of the claim.
func TestDeriveStructureUnderChurn(t *testing.T) {
	d := NewDevice(smallConfig())
	fillDevice(t, d, 16)
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(7))
		id := 1000
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := mkRule(id, 1+rng.Intn(1000), rules.Prefix{Addr: rng.Uint32(), Len: 24})
			if _, err := d.InsertRule(r); err == nil {
				id++
				if id%4 == 0 {
					_, _ = d.DeleteRule(id - 2)
				}
			} else {
				_, _ = d.DeleteRule(id - 1 - rng.Intn(8))
			}
		}
	}()
	s := &Structure{}
	for i := 0; i < 2000; i++ {
		s = d.DeriveStructure(s)
		sum := 0
		for _, sub := range s.Subtables {
			sum += sub.Entries
		}
		if sum != s.Entries {
			t.Fatalf("iteration %d: torn observation: subtable sum %d != entries %d (epoch %d)", i, sum, s.Entries, s.Epoch)
		}
	}
	close(stop)
}
