// OpenFlow-style multi-table pipeline: the deployment surface the
// paper's introduction motivates. Three CATCAM-backed flow tables (ACL,
// tenant steering, forwarding) classify traffic with goto-table
// chaining, while a controller hot-swaps policy mid-traffic — every
// installation costing nanoseconds at any pipeline position.
package main

import (
	"fmt"
	"log"

	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/rules"
)

func main() {
	dev := func() core.Config {
		return core.Config{Subtables: 16, SubtableCapacity: 64, KeyWidth: 160, FrequencyMHz: 500}
	}
	p, err := flowtable.NewPipeline([]flowtable.TableConfig{
		{ID: 0, Device: dev(), Miss: flowtable.MissPolicy{Continue: true}},             // ACL
		{ID: 1, Device: dev(), Miss: flowtable.MissPolicy{Continue: true}},             // steering
		{ID: 2, Device: dev(), Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}}, // forwarding
	})
	if err != nil {
		log.Fatal(err)
	}

	anyRule := func(id, prio int) rules.Rule {
		return rules.Rule{ID: id, Priority: prio,
			SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
			ProtoWildcard: true}
	}
	srcRule := func(id, prio int, addr uint32, plen int) rules.Rule {
		r := anyRule(id, prio)
		r.SrcIP = rules.Prefix{Addr: addr, Len: plen}
		return r
	}

	install := func(table int, fr flowtable.FlowRule) {
		res, err := p.Install(table, fr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  table %d <- rule %-3d (prio %3d): %d cycles\n",
			table, fr.Rule.ID, fr.Rule.Priority, res.Cycles)
	}

	fmt.Println("installing the base policy:")
	// ACL: drop a malicious /24, pass the rest to steering.
	install(0, flowtable.FlowRule{Rule: srcRule(1, 100, 0x0A666600, 24),
		Instruction: flowtable.Terminal(flowtable.Drop)})
	install(0, flowtable.FlowRule{Rule: anyRule(2, 1), Instruction: flowtable.Goto(1)})
	// Steering: tenant A (10/8) and tenant B (172.16/12) to forwarding.
	install(1, flowtable.FlowRule{Rule: srcRule(3, 10, 0x0A000000, 8),
		Instruction: flowtable.Goto(2)})
	install(1, flowtable.FlowRule{Rule: srcRule(4, 10, 0xAC100000, 12),
		Instruction: flowtable.Goto(2)})
	// Forwarding: tenants out of ports 1 and 2.
	install(2, flowtable.FlowRule{Rule: srcRule(5, 10, 0x0A000000, 8),
		Instruction: flowtable.Terminal(1)})
	install(2, flowtable.FlowRule{Rule: srcRule(6, 10, 0xAC100000, 12),
		Instruction: flowtable.Terminal(2)})

	show := func(name string, h rules.Header) {
		action, traces := p.Classify(h)
		path := ""
		for _, tr := range traces {
			path += fmt.Sprintf(" ->T%d", tr.TableID)
		}
		out := fmt.Sprint(action)
		if action == flowtable.Drop {
			out = "drop"
		}
		fmt.Printf("  %-22s %s  => %s\n", name, path, out)
	}

	fmt.Println("\ntraffic before the policy change:")
	show("tenant A flow", rules.Header{SrcIP: 0x0A010203})
	show("tenant B flow", rules.Header{SrcIP: 0xAC10FFFF})
	show("malicious source", rules.Header{SrcIP: 0x0A666601})
	show("unknown tenant", rules.Header{SrcIP: 0xC0A80001})

	// The controller quarantines tenant A mid-stream: one 3-cycle
	// install into the middle table. On a conventional TCAM the same
	// change could shuffle entries in every table below the insertion
	// point.
	fmt.Println("\ncontroller: quarantine tenant A (install into table 1):")
	install(1, flowtable.FlowRule{Rule: srcRule(99, 90, 0x0A000000, 8),
		Instruction: flowtable.Terminal(1000)})

	fmt.Println("\ntraffic after:")
	show("tenant A flow", rules.Header{SrcIP: 0x0A010203})
	show("tenant B flow", rules.Header{SrcIP: 0xAC10FFFF})

	fmt.Println("\ncontroller: lift the quarantine (1-cycle delete):")
	if _, err := p.Remove(1, 99); err != nil {
		log.Fatal(err)
	}
	show("tenant A flow", rules.Header{SrcIP: 0x0A010203})

	if err := p.CheckInvariant(); err != nil {
		log.Fatal(err)
	}
	s := p.UpdateStats()
	fmt.Printf("\npipeline totals: %d installs, %d deletes, %d table lookups — all updates O(1)\n",
		s.Inserts, s.Deletes, s.Lookups)
}
