package flowtable

import (
	"strconv"
	"testing"

	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// TestFlightRecorderAcrossTables wires a shared update tracer and
// per-table auditors into a three-table pipeline before any rule
// lands, churns it, and checks the evidence: table-labelled update
// traces, a clean aggregate sweep, live inline audits and zero
// violations.
func TestFlightRecorderAcrossTables(t *testing.T) {
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 2, Device: smallDev(), Miss: MissPolicy{MissAction: Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}

	tt := trace.NewTracer(128)
	tt.SetSampleEvery(1)
	p.AttachTracer(tt)

	auds := map[int]*flightrec.Auditor{}
	p.AttachAuditors(func(id int) *flightrec.Auditor {
		a := flightrec.NewAuditor(nil, nil, 16, telemetry.Labels{"table": strconv.Itoa(id)})
		a.SetLookupSampleEvery(1)
		auds[id] = a
		return a
	})
	// Same topology as buildPipeline, installed after instrumentation so
	// every update is traced.
	mustInstall(t, p, 0, FlowRule{Rule: srcRule(1, 10, 0x0A666600, 24), Instruction: Terminal(Drop)})
	mustInstall(t, p, 0, FlowRule{Rule: anyRule(2, 1), Instruction: Goto(1)})
	mustInstall(t, p, 1, FlowRule{Rule: srcRule(3, 5, 0x0A000000, 8), Instruction: Goto(2)})
	mustInstall(t, p, 2, FlowRule{Rule: anyRule(4, 1), Instruction: Terminal(7)})

	for i := 0; i < 8; i++ {
		p.Classify(rules.Header{SrcIP: 0x0A010101 + uint32(i)})
	}
	hdrs := []rules.Header{{SrcIP: 0x0A666601}, {SrcIP: 0x0B010101}, {SrcIP: 0x0A020202}}
	p.ClassifyBatch(nil, hdrs, nil)
	if auds[0].Checks(flightrec.InvWinnerAgreement) == 0 {
		t.Fatal("no inline lookup audit on table 0")
	}

	// Churn: remove and reinstall through the pipeline so deletes are
	// traced too.
	if _, err := p.Remove(1, 3); err != nil {
		t.Fatal(err)
	}
	mustInstall(t, p, 1, FlowRule{Rule: srcRule(3, 5, 0x0A000000, 8), Instruction: Goto(2)})

	info := p.AuditSweep()
	if info.Checks == 0 {
		t.Fatal("aggregate sweep ran no checks")
	}
	if info.Violations != 0 {
		t.Fatalf("aggregate sweep found %d violations", info.Violations)
	}
	for id, a := range auds {
		if a.TotalViolations() != 0 {
			t.Fatalf("table %d auditor: %d violations: %+v", id, a.TotalViolations(), a.Violations())
		}
	}

	// Every table's installs produced update traces whose every step
	// carries the table's ID.
	sawInsert := map[int]bool{}
	sawDelete := map[int]bool{}
	for _, tr := range tt.Snapshot() {
		table := tr.Spans[0].Table
		for _, sp := range tr.Spans {
			if sp.Table != table {
				t.Fatalf("%s trace of rule %d mixes tables %d and %d", tr.Kind, tr.RuleID, table, sp.Table)
			}
		}
		switch tr.Kind {
		case "insert":
			sawInsert[table] = true
		case "delete":
			sawDelete[table] = true
		}
	}
	for _, id := range p.TableIDs() {
		if !sawInsert[id] {
			t.Fatalf("no insert trace for table %d", id)
		}
	}
	if !sawDelete[1] {
		t.Fatal("no delete trace for table 1")
	}

	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
