// Firewall churn: load a ClassBench-style FW ruleset into CATCAM,
// stream heavy rule churn while classifying traffic, and verify every
// answer against the linear reference classifier — demonstrating that
// O(1) updates never produce a wrong or stale classification.
package main

import (
	"fmt"
	"log"

	"catcam"
	"catcam/internal/classbench"
)

func main() {
	const (
		ruleCount = 1000
		churn     = 1500
		packets   = 2000
	)

	rs := classbench.Generate(classbench.Config{
		Family: classbench.FW, Size: ruleCount, Seed: 42,
	})
	trace := classbench.UpdateTrace(rs, churn, 43)
	headers := classbench.PacketTrace(rs, packets, 0.85, 44)

	// FW rules range-expand to several entries each (about 4 at this
	// key width, with its port predicate columns), so use the
	// prototype's 64K-entry geometry.
	dev := catcam.New(catcam.Compact())
	ref := &catcam.Ruleset{}

	fmt.Printf("loading %d firewall rules (FW rules range-expand heavily)...\n", ruleCount)
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			log.Fatalf("load: %v", err)
		}
		ref.Rules = append(ref.Rules, r)
	}
	fmt.Printf("  %d TCAM entries across %d subtables (%.1fx range expansion)\n",
		dev.Len(), dev.ActiveSubtables(), float64(dev.Len())/float64(ruleCount))

	fmt.Printf("interleaving %d updates with %d lookups...\n", churn, packets)
	mismatches := 0
	verified := 0
	hi := 0 // next header to classify
	for i, u := range trace {
		var err error
		if u.Op == classbench.OpInsert {
			if _, err = dev.InsertRule(u.Rule); err == nil {
				ref.Rules = append(ref.Rules, u.Rule)
			}
		} else {
			if _, err = dev.DeleteRule(u.Rule.ID); err == nil {
				for j, r := range ref.Rules {
					if r.ID == u.Rule.ID {
						ref.Rules = append(ref.Rules[:j], ref.Rules[j+1:]...)
						break
					}
				}
			}
		}
		if err != nil {
			log.Fatalf("update %d (%s rule %d): %v", i, u.Op, u.Rule.ID, err)
		}
		// Classify a slice of traffic between updates, checking the
		// device against ground truth every time.
		for k := 0; k < packets/churn+1 && hi < len(headers); k++ {
			h := headers[hi]
			hi++
			got, ok := dev.Lookup(h)
			want, wantOK := ref.Best(h)
			verified++
			if ok != wantOK || (ok && got != want.Action) {
				mismatches++
			}
		}
	}

	s := dev.Stats()
	fmt.Printf("  verified %d lookups against the reference: %d mismatches\n", verified, mismatches)
	fmt.Printf("  updates: %d inserts (%.1f%% needed a reallocation), %d deletes\n",
		s.Inserts, 100*float64(s.ReallocInserts)/float64(max(s.Inserts, 1)), s.Deletes)
	fmt.Printf("  average update time: %.1f ns (vs hundreds of ms on a naive TCAM switch)\n",
		dev.CyclesToNanos(s.UpdateCycles)/float64(max(s.Inserts+s.Deletes, 1)))
	if mismatches > 0 {
		log.Fatalf("%d mismatches — device disagrees with reference", mismatches)
	}
	fmt.Println("OK")
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
