package flowtable

import (
	"errors"
	"math"
	"testing"

	"catcam/internal/core"
	"catcam/internal/rules"
)

func smallDev() core.Config {
	return core.Config{Subtables: 4, SubtableCapacity: 16, KeyWidth: 160, FrequencyMHz: 500}
}

func anyRule(id, prio int) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio,
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func srcRule(id, prio int, addr uint32, plen int) rules.Rule {
	r := anyRule(id, prio)
	r.SrcIP = rules.Prefix{Addr: addr, Len: plen}
	return r
}

// A classic three-stage pipeline: ACL (drop bad sources) -> zone
// classification -> forwarding.
func buildPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 2, Device: smallDev(), Miss: MissPolicy{MissAction: Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Table 0: drop one bad /24, everything else continues.
	mustInstall(t, p, 0, FlowRule{Rule: srcRule(1, 10, 0x0A666600, 24), Instruction: Terminal(Drop)})
	mustInstall(t, p, 0, FlowRule{Rule: anyRule(2, 1), Instruction: Goto(1)})
	// Table 1: zone 10/8 goes to forwarding, others skip ahead too.
	mustInstall(t, p, 1, FlowRule{Rule: srcRule(3, 5, 0x0A000000, 8), Instruction: Goto(2)})
	// Table 2: forward to port 7.
	mustInstall(t, p, 2, FlowRule{Rule: anyRule(4, 1), Instruction: Terminal(7)})
	return p
}

func mustInstall(t *testing.T, p *Pipeline, id int, fr FlowRule) {
	t.Helper()
	if _, err := p.Install(id, fr); err != nil {
		t.Fatalf("install table %d rule %d: %v", id, fr.Rule.ID, err)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(nil); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev()}, {ID: 0, Device: smallDev()},
	}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := NewPipeline([]TableConfig{
		{ID: 1, Device: smallDev()}, {ID: 0, Device: smallDev()},
	}); err == nil {
		t.Fatal("descending IDs accepted")
	}
}

func TestClassifyChain(t *testing.T) {
	p := buildPipeline(t)

	// Good zone traffic: 0 -> 1 -> 2 -> port 7.
	action, traces := p.Classify(rules.Header{SrcIP: 0x0A010101})
	if action != 7 {
		t.Fatalf("action = %d, want 7", action)
	}
	if len(traces) != 3 || traces[0].TableID != 0 || traces[2].TableID != 2 {
		t.Fatalf("trace = %+v", traces)
	}

	// Bad source: dropped at table 0, higher priority than the goto.
	action, traces = p.Classify(rules.Header{SrcIP: 0x0A666601})
	if action != Drop || len(traces) != 1 {
		t.Fatalf("bad source: action %d, traces %+v", action, traces)
	}

	// Unknown zone: table 1 misses and continues; table 2 forwards.
	action, _ = p.Classify(rules.Header{SrcIP: 0x0B010101})
	if action != 7 {
		t.Fatalf("unknown zone action = %d, want 7", action)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestMissPolicyTerminal(t *testing.T) {
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev(), Miss: MissPolicy{MissAction: 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	action, traces := p.Classify(rules.Header{})
	if action != 42 || len(traces) != 1 || traces[0].RuleID != -1 {
		t.Fatalf("miss: action %d traces %+v", action, traces)
	}
}

func TestMissContinueOffTheEnd(t *testing.T) {
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: smallDev(), Miss: MissPolicy{Continue: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	action, traces := p.Classify(rules.Header{})
	if action != Drop || len(traces) != 2 {
		t.Fatalf("fall-off: action %d traces %+v", action, traces)
	}
}

func TestInstallValidation(t *testing.T) {
	p := buildPipeline(t)
	if _, err := p.Install(9, FlowRule{Rule: anyRule(50, 1), Instruction: Terminal(1)}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table err = %v", err)
	}
	if _, err := p.Install(1, FlowRule{Rule: anyRule(50, 1), Instruction: Goto(0)}); !errors.Is(err, ErrBackwardGoto) {
		t.Fatalf("backward goto err = %v", err)
	}
	if _, err := p.Install(1, FlowRule{Rule: anyRule(50, 1), Instruction: Goto(9)}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("goto unknown err = %v", err)
	}
	if _, err := p.Remove(9, 1); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("remove unknown table err = %v", err)
	}
}

// TestTerminalActionRange: an entry's action word holds a terminal
// action shifted left by one, so every int32 action comes back out of
// a classify unchanged and an action that loses its top bit to the
// shift is refused.
func TestTerminalActionRange(t *testing.T) {
	for _, a := range []int{Drop, 0, math.MaxInt32, math.MinInt32, math.MaxInt >> 1, math.MinInt >> 1} {
		p, err := NewPipeline([]TableConfig{{ID: 0, Device: smallDev()}})
		if err != nil {
			t.Fatal(err)
		}
		mustInstall(t, p, 0, FlowRule{Rule: anyRule(1, 1), Instruction: Terminal(a)})
		if got, _ := p.Classify(rules.Header{}); got != a {
			t.Errorf("terminal %d classifies as %d", a, got)
		}
	}
	p := buildPipeline(t)
	for _, a := range []int{math.MaxInt, math.MinInt, math.MaxInt>>1 + 1, math.MinInt>>1 - 1} {
		if _, err := p.Install(1, FlowRule{Rule: anyRule(50, 1), Instruction: Terminal(a)}); !errors.Is(err, ErrActionRange) {
			t.Errorf("terminal %d: err = %v, want ErrActionRange", a, err)
		}
	}
}

func TestLiveUpdateMidPipeline(t *testing.T) {
	p := buildPipeline(t)
	// Before: good traffic forwards to 7.
	if action, _ := p.Classify(rules.Header{SrcIP: 0x0A010101}); action != 7 {
		t.Fatalf("pre-update action = %d", action)
	}
	// Controller installs a higher-priority quarantine in table 1.
	res, err := p.Install(1, FlowRule{Rule: srcRule(99, 50, 0x0A000000, 8), Instruction: Terminal(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > 5 {
		t.Fatalf("mid-pipeline install cost %d cycles", res.Cycles)
	}
	if action, _ := p.Classify(rules.Header{SrcIP: 0x0A010101}); action != 1000 {
		t.Fatalf("post-update action = %d, want 1000", action)
	}
	// And removes it again: one cycle.
	res, err = p.Remove(1, 99)
	if err != nil || res.Cycles != 1 {
		t.Fatalf("remove: %+v %v", res, err)
	}
	if action, _ := p.Classify(rules.Header{SrcIP: 0x0A010101}); action != 7 {
		t.Fatalf("post-remove action = %d, want 7", action)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	p := buildPipeline(t)
	p.Classify(rules.Header{SrcIP: 0x0A010101})
	s := p.UpdateStats()
	if s.Inserts != 4 {
		t.Fatalf("pipeline inserts = %d", s.Inserts)
	}
	if s.Lookups != 3 {
		t.Fatalf("pipeline lookups = %d, want 3 table visits", s.Lookups)
	}
	if got := p.TableIDs(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("TableIDs = %v", got)
	}
	if _, ok := p.Table(1); !ok {
		t.Fatal("Table accessor failed")
	}
	if _, ok := p.Table(9); ok {
		t.Fatal("unknown table found")
	}
}
