package flowtable_test

import (
	"fmt"

	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/rules"
)

// A two-table pipeline: an ACL that drops one subnet and forwards the
// rest to a forwarding table.
func ExamplePipeline() {
	dev := core.Config{Subtables: 4, SubtableCapacity: 16, KeyWidth: 160}
	p, _ := flowtable.NewPipeline([]flowtable.TableConfig{
		{ID: 0, Device: dev, Miss: flowtable.MissPolicy{Continue: true}},
		{ID: 1, Device: dev, Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}},
	})
	any := rules.Rule{ID: 1, Priority: 1,
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(), ProtoWildcard: true}
	bad := any
	bad.ID, bad.Priority = 2, 99
	bad.SrcIP = rules.Prefix{Addr: 0x0A666600, Len: 24}

	p.Install(0, flowtable.FlowRule{Rule: bad, Instruction: flowtable.Terminal(flowtable.Drop)})
	p.Install(0, flowtable.FlowRule{Rule: any, Instruction: flowtable.Goto(1)})
	fwd := any
	fwd.ID = 3
	p.Install(1, flowtable.FlowRule{Rule: fwd, Instruction: flowtable.Terminal(7)})

	a, _ := p.Classify(rules.Header{SrcIP: 0x0A010101})
	b, _ := p.Classify(rules.Header{SrcIP: 0x0A666601})
	fmt.Println(a, b)
	// Output:
	// 7 -1
}
