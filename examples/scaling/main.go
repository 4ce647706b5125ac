// Scaling: watch CATCAM's hierarchical machinery work. Starting from a
// single subtable, rules stream in at random priorities; when a
// subtable's interval fills, the scheduler evicts exactly one rule and,
// when needed, assigns a fresh subtable whose interval splits the old
// one (§IV-B, Figs 8-10). The example prints the subtable count as it
// grows until the first insertion fails. The prototype-scale
// fill-to-failure figures of §VIII-B are `catcam-bench -experiment
// occupancy`.
package main

import (
	"fmt"
	"math/rand"

	"catcam"
)

func main() {
	dev := catcam.New(catcam.Config{
		Subtables: 8, SubtableCapacity: 32, KeyWidth: 160, FrequencyMHz: 500,
	})
	rng := rand.New(rand.NewSource(7))

	fmt.Println("streaming rules at random priorities into an 8x32 device:")
	lastTables := 0
	reallocs, worst := 0, 0
	id := 0
	for {
		r := catcam.Rule{
			ID: id, Priority: 1 + rng.Intn(1<<16), Action: id,
			SrcIP:   catcam.Prefix{Addr: rng.Uint32(), Len: 16}.Canonical(),
			SrcPort: catcam.FullPortRange(), DstPort: catcam.FullPortRange(),
			ProtoWildcard: true,
		}
		res, err := dev.InsertRule(r)
		if err != nil {
			fmt.Printf("\ninsertion failed at rule %d: device cannot place priority %d\n", id, r.Priority)
			break
		}
		reallocs += res.Reallocated
		worst = max(worst, res.Reallocated)
		id++
		if dev.ActiveSubtables() != lastTables {
			lastTables = dev.ActiveSubtables()
			fmt.Printf("  %4d rules -> %d subtables active (occupancy %5.1f%%, %d reallocations so far)\n",
				id, lastTables, dev.Occupancy()*100, reallocs)
		}
	}
	s := dev.Stats()
	fmt.Printf("\nfinal: %d rules stored, occupancy %.1f%%\n", dev.Len(), dev.Occupancy()*100)
	fmt.Printf("inserts: %d direct (3 cycles) / %d with one reallocation (5 cycles)\n",
		s.DirectInserts, s.ReallocInserts)
	fmt.Printf("the most existing rules one insert moved: %d — O(1) by construction\n", worst)
}
