package core

import (
	"strings"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// telDevice is a 4x4 device reporting into a fresh registry, with every
// update traced.
func telDevice(t *testing.T) (*Device, *telemetry.Registry, *trace.Tracer) {
	t.Helper()
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160, FrequencyMHz: 500})
	reg := telemetry.NewRegistry()
	d.AttachTelemetry(reg, nil, nil)
	tt := trace.NewTracer(128)
	tt.SetSampleEvery(1)
	d.AttachTracer(tt)
	return d, reg, tt
}

func telRule(id, prio int) rules.Rule {
	r := rules.Rule{ID: id, Priority: prio, Action: id}
	r.SrcPort = rules.FullPortRange()
	r.DstPort = rules.FullPortRange()
	return r
}

func TestDeviceTelemetryHistograms(t *testing.T) {
	d, reg, tt := telDevice(t)
	for i := 0; i < 12; i++ {
		if _, err := d.InsertRule(telRule(i, i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := d.DeleteRule(3); err != nil {
		t.Fatal(err)
	}
	// One rule whose port range expands to several stored entries: the
	// entries gauge counts entries, the insert histogram counts rules.
	wide := telRule(12, 13)
	wide.DstPort = rules.PortRange{Lo: 1, Hi: 6}
	before := d.Len()
	if _, err := d.InsertRule(wide); err != nil {
		t.Fatal(err)
	}
	if got := d.Len() - before; got < 2 {
		t.Fatalf("wide rule stored %d entries, want a multi-entry rule", got)
	}
	snap := reg.Snapshot()
	ins, ok := snap.Histograms[`catcam_update_cycles{op="insert"}`]
	if !ok {
		t.Fatalf("missing insert histogram; have %v", snap.Histograms)
	}
	if ins.Count != 13 {
		t.Errorf("insert count = %d, want 13", ins.Count)
	}
	if ins.P99 == 0 {
		t.Error("insert p99 = 0, want non-zero")
	}
	del := snap.Histograms[`catcam_update_cycles{op="delete"}`]
	if del.Count != 1 || del.Sum != 1 {
		t.Errorf("delete histogram = %+v, want one 1-cycle observation", del)
	}
	// The device stats and telemetry must agree on totals.
	if got := snap.Counters["catcam_fresh_subtables_total"]; got != d.Stats().FreshSubtables {
		t.Errorf("fresh counter = %d, stats say %d", got, d.Stats().FreshSubtables)
	}
	if got := snap.Counters["catcam_reallocations_total"]; got != d.Stats().Reallocations {
		t.Errorf("realloc counter = %d, stats say %d", got, d.Stats().Reallocations)
	}
	if got := snap.Gauges["catcam_entries"]; got != int64(d.Len()) {
		t.Errorf("entries gauge = %d, device has %d", got, d.Len())
	}
	if got := tt.Total(); got != 14 {
		t.Errorf("%d update traces for 14 requests", got)
	}
	// /metrics output must contain non-zero cycle buckets and a p99.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"catcam_update_cycles_bucket", "catcam_update_cycles_p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s:\n%s", want, out)
		}
	}
}

// TestDeviceTelemetryReallocEvents checks that the update trace records
// every reallocation (an evict_locate step, then the eviction_hop that
// re-places the evicted maximum) and every fresh-subtable assignment,
// agreeing with the registry's counters.
func TestDeviceTelemetryReallocEvents(t *testing.T) {
	d, reg, tt := telDevice(t)
	// Fill to force reallocations (4x4 device, 16 slots; interleaved
	// priorities force mid-interval inserts into full subtables).
	prios := []int{100, 200, 300, 400, 150, 250, 350, 50, 120, 130, 140, 160}
	for i, p := range prios {
		if _, err := d.InsertRule(telRule(i, p)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if d.Stats().Reallocations == 0 {
		t.Skip("workload produced no reallocations; geometry changed?")
	}
	steps := map[trace.Stage]uint64{}
	for _, tr := range tt.Snapshot() {
		for _, sp := range tr.Spans {
			steps[sp.Stage]++
			switch sp.Stage {
			case trace.StageEvictLocate, trace.StageEvictionHop, trace.StageFreshSubtable:
				if sp.Subtable < 0 {
					t.Errorf("%s step of trace %d has no subtable", sp.Stage, tr.ID)
				}
			}
		}
	}
	snap := reg.Snapshot()
	realloc := snap.Counters["catcam_reallocations_total"]
	if realloc != d.Stats().Reallocations {
		t.Errorf("realloc counter = %d, stats = %d", realloc, d.Stats().Reallocations)
	}
	if steps[trace.StageEvictLocate] != realloc || steps[trace.StageEvictionHop] != realloc {
		t.Errorf("%d evict_locate and %d eviction_hop steps, want %d each (one per reallocation)",
			steps[trace.StageEvictLocate], steps[trace.StageEvictionHop], realloc)
	}
	fresh := snap.Counters["catcam_fresh_subtables_total"]
	if fresh == 0 || steps[trace.StageFreshSubtable] != fresh {
		t.Errorf("%d fresh_subtable steps, %d fresh subtables counted, want equal and non-zero",
			steps[trace.StageFreshSubtable], fresh)
	}
}

func TestDeviceTelemetryModify(t *testing.T) {
	d, reg, _ := telDevice(t)
	if _, err := d.InsertRule(telRule(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ModifyRule(1, telRule(1, 20)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Modify observes once in the modify histogram; the inner
	// delete+insert do not double-report.
	if got := snap.Histograms[`catcam_update_cycles{op="modify"}`].Count; got != 1 {
		t.Errorf("modify count = %d, want 1", got)
	}
	if got := snap.Histograms[`catcam_update_cycles{op="insert"}`].Count; got != 1 {
		t.Errorf("insert count = %d, want 1 (modify must not double-count)", got)
	}
	if got := snap.Histograms[`catcam_update_cycles{op="delete"}`].Count; got != 0 {
		t.Errorf("delete count = %d, want 0 (modify must not double-count)", got)
	}
}

func TestDeviceTelemetryErrors(t *testing.T) {
	d, reg, _ := telDevice(t)
	if _, err := d.DeleteRule(99); err == nil {
		t.Fatal("expected ErrNotFound")
	}
	if got := reg.Snapshot().Counters[`catcam_update_errors_total{op="delete"}`]; got != 1 {
		t.Errorf("delete error counter = %d, want 1", got)
	}
}

func TestResetStatsResetsTelemetry(t *testing.T) {
	d, reg, _ := telDevice(t)
	for i := 0; i < 6; i++ {
		if _, err := d.InsertRule(telRule(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	d.Lookup(rules.Header{})
	d.ResetStats()
	snap := reg.Snapshot()
	if got := snap.Histograms[`catcam_update_cycles{op="insert"}`].Count; got != 0 {
		t.Errorf("insert histogram count after ResetStats = %d, want 0", got)
	}
	if got := snap.Counters["catcam_lookups_total"]; got != 0 {
		t.Errorf("lookup counter after ResetStats = %d, want 0", got)
	}
	// Gauges describe current state and must survive the reset.
	if got := snap.Gauges["catcam_entries"]; got != int64(d.Len()) {
		t.Errorf("entries gauge after reset = %d, want %d", got, d.Len())
	}
	// ResetArrayStats resets telemetry too.
	if _, err := d.InsertRule(telRule(100, 7)); err != nil {
		t.Fatal(err)
	}
	d.ResetArrayStats()
	if got := reg.Snapshot().Histograms[`catcam_update_cycles{op="insert"}`].Count; got != 0 {
		t.Errorf("insert histogram count after ResetArrayStats = %d, want 0", got)
	}
}

func TestDetachTelemetry(t *testing.T) {
	d, reg, _ := telDevice(t)
	d.AttachTelemetry(nil, nil, nil)
	if _, err := d.InsertRule(telRule(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Histograms[`catcam_update_cycles{op="insert"}`].Count; got != 0 {
		t.Errorf("detached device still observes: insert count %d", got)
	}
}

// TestEvictionChainDepthPerEntry: catcam_eviction_chain_depth observes
// each stored entry's own moves. Two full 4-slot subtables hold
// priorities 10-40 and 50-80, and a 4-row rule ranked 15 goes into the
// first. In the paper's mode each row that evicts moves one entry, so
// the series observes only 1s, one per evicting row; under the
// chained-reallocation ablation an evicted maximum pushes the full
// successor's maximum on, and the series observes 2.
func TestEvictionChainDepthPerEntry(t *testing.T) {
	for _, chained := range []bool{false, true} {
		d := NewDevice(Config{Subtables: 3, SubtableCapacity: 4, KeyWidth: 160, ChainedReallocation: chained})
		reg := telemetry.NewRegistry()
		d.AttachTelemetry(reg, nil, nil)
		for i := 1; i <= 8; i++ {
			if _, err := d.InsertRule(telRule(i, 10*i)); err != nil {
				t.Fatal(err)
			}
		}
		wide := telRule(9, 15)
		wide.DstPort = rules.PortRange{Lo: 1, Hi: 6} // 4 rows
		res, err := d.InsertRule(wide)
		if err != nil {
			t.Fatal(err)
		}
		h := reg.Snapshot().Histograms["catcam_eviction_chain_depth"]
		switch {
		case h.Sum != uint64(res.Reallocated):
			t.Errorf("chained=%v: depths sum to %d, the insert moved %d entries", chained, h.Sum, res.Reallocated)
		case !chained && (h.Max != 1 || h.Count < 2):
			t.Errorf("paper's mode: %d observations, max %d; want one 1 per evicting row, of several", h.Count, h.Max)
		case chained && h.Max < 2:
			t.Errorf("chained reallocation: max depth %d over %d observations, want a chain of 2 or more", h.Max, h.Count)
		}
	}
}
