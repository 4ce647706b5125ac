package flowtable

import (
	"testing"

	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

func telPipeline(t *testing.T) *Pipeline {
	t.Helper()
	cfg := core.Config{Subtables: 4, SubtableCapacity: 16, KeyWidth: 160}
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: cfg, Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: cfg, Miss: MissPolicy{MissAction: Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func wideRule(id, prio, action int) rules.Rule {
	return rules.Rule{ID: id, Priority: prio, Action: action,
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true}
}

func TestFlowtableTelemetry(t *testing.T) {
	p := telPipeline(t)
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, nil, nil)

	// Table 0 forwards everything to table 1; table 1 terminates.
	if _, err := p.Install(0, FlowRule{Rule: wideRule(1, 10, 0), Instruction: Goto(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Install(1, FlowRule{Rule: wideRule(2, 10, 42), Instruction: Terminal(42)}); err != nil {
		t.Fatal(err)
	}
	action, traces := p.Classify(rules.Header{})
	if action != 42 {
		t.Fatalf("Classify = %d, want 42", action)
	}
	if len(traces) != 2 {
		t.Fatalf("trace depth = %d, want 2", len(traces))
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`catcam_flowtable_classify_total{result="hit",table="0"}`]; got != 1 {
		t.Errorf("table 0 hits = %d, want 1", got)
	}
	if got := snap.Counters[`catcam_flowtable_classify_total{result="hit",table="1"}`]; got != 1 {
		t.Errorf("table 1 hits = %d, want 1", got)
	}
	depth := snap.Histograms["catcam_flowtable_goto_depth"]
	if depth.Count != 1 || depth.Sum != 2 {
		t.Errorf("goto depth histogram = %+v, want one observation of 2", depth)
	}
	// Install metrics landed on the per-table device series.
	if got := snap.Histograms[`catcam_update_cycles{op="insert",table="0"}`].Count; got != 1 {
		t.Errorf("table 0 insert histogram count = %d, want 1", got)
	}
}

func TestFlowtableTelemetryMissAndDrop(t *testing.T) {
	p := telPipeline(t)
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, nil, nil)
	// Nothing installed: table 0 continues, table 1 drops.
	action, _ := p.Classify(rules.Header{})
	if action != Drop {
		t.Fatalf("Classify = %d, want Drop", action)
	}
	snap := reg.Snapshot()
	for _, table := range []string{"0", "1"} {
		key := `catcam_flowtable_classify_total{result="miss",table="` + table + `"}`
		if got := snap.Counters[key]; got != 1 {
			t.Errorf("%s = %d, want 1", key, got)
		}
	}
	if got := snap.Counters["catcam_flowtable_drops_total"]; got != 1 {
		t.Errorf("drops = %d, want 1", got)
	}
}
