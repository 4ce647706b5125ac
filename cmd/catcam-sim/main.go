// Command catcam-sim drives a CATCAM device interactively or in batch:
// it loads a generated ruleset, replays an update trace and a packet
// trace, verifies every lookup against the linear reference classifier,
// and prints the device's cycle/energy statistics.
//
// Usage:
//
//	catcam-sim [-family ACL] [-size 1000] [-updates 200] [-packets 500]
//	           [-subtables 256] [-slots 256] [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
)

func main() {
	family := flag.String("family", "ACL", "ruleset family: ACL, FW or IPC")
	size := flag.Int("size", 1000, "number of rules")
	seed := flag.Int64("seed", 1, "generator seed")
	updates := flag.Int("updates", 200, "update-trace length")
	packets := flag.Int("packets", 500, "packet-trace length")
	subtables := flag.Int("subtables", 256, "subtable count")
	slots := flag.Int("slots", 256, "entries per subtable")
	verify := flag.Bool("verify", true, "check every lookup against the linear reference")
	flag.Parse()

	if err := run(*family, *size, *seed, *updates, *packets, *subtables, *slots, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-sim:", err)
		os.Exit(1)
	}
}

func run(family string, size int, seed int64, updates, packets, subtables, slots int, verify bool) error {
	fam, err := classbench.ParseFamily(family)
	if err != nil {
		return err
	}

	rs := classbench.Generate(classbench.Config{Family: fam, Size: size, Seed: seed})
	trace := classbench.UpdateTrace(rs, updates, seed+1)
	headers := classbench.PacketTrace(rs, packets, 0.9, seed+2)

	d := core.NewDevice(core.Config{
		Subtables: subtables, SubtableCapacity: slots,
		KeyWidth: 160, FrequencyMHz: 500,
	})
	ref := &rules.Ruleset{}

	fmt.Printf("loading %d %s rules...\n", size, fam)
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			return fmt.Errorf("load rule %d: %w", r.ID, err)
		}
		ref.Rules = append(ref.Rules, r)
	}
	fmt.Printf("  %d entries in %d subtables, occupancy %.1f%%\n",
		d.Len(), d.ActiveSubtables(), d.Occupancy()*100)

	fmt.Printf("replaying %d updates...\n", len(trace))
	failed := 0
	for _, u := range trace {
		if u.Op == classbench.OpInsert {
			if _, err := d.InsertRule(u.Rule); err != nil {
				failed++
				continue
			}
			ref.Rules = append(ref.Rules, u.Rule)
		} else {
			if _, err := d.DeleteRule(u.Rule.ID); err != nil {
				failed++
				continue
			}
			for i, r := range ref.Rules {
				if r.ID == u.Rule.ID {
					ref.Rules = append(ref.Rules[:i], ref.Rules[i+1:]...)
					break
				}
			}
		}
	}
	if failed > 0 {
		fmt.Printf("  %d updates rejected (device full)\n", failed)
	}

	fmt.Printf("classifying %d packets...\n", len(headers))
	mismatches, matched := 0, 0
	for _, h := range headers {
		got, ok := d.Lookup(h)
		if ok {
			matched++
		}
		if verify {
			want, wantOK := ref.Best(h)
			if ok != wantOK || (ok && got != want.Action) {
				mismatches++
			}
		}
	}
	fmt.Printf("  %d/%d matched", matched, len(headers))
	if verify {
		fmt.Printf(", %d mismatches vs reference", mismatches)
	}
	fmt.Println()
	if err := d.CheckInvariant(); err != nil {
		return fmt.Errorf("invariant violated: %w", err)
	}

	s := d.Stats()
	fmt.Println("\ndevice statistics:")
	fmt.Printf("  lookups   %d (%.1f ns avg, pipelined)\n",
		s.Lookups, d.CyclesToNanos(s.LookupCycles)/float64(max64(s.Lookups, 1)))
	fmt.Printf("  inserts   %d (%d direct / %d realloc)\n", s.Inserts, s.DirectInserts, s.ReallocInserts)
	fmt.Printf("  deletes   %d\n", s.Deletes)
	fmt.Printf("  update time avg %.1f ns\n",
		d.CyclesToNanos(s.UpdateCycles)/float64(max64(s.Inserts+s.Deletes, 1)))
	fmt.Printf("  fresh subtables assigned at runtime: %d\n", s.FreshSubtables)
	if mismatches > 0 {
		return fmt.Errorf("%d lookup mismatches", mismatches)
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
