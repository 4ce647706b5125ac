// Package core implements CATCAM: the Constant-time Alteration Ternary
// CAM of the paper. It combines per-subtable match matrices and priority
// matrices (both 8T-SRAM PIM arrays from internal/sram) with a global
// priority matrix and the interval-based insertion scheduler, providing
// O(1)-time lookup and update over hundreds of thousands of rules.
//
// Terminology follows the paper:
//
//   - match matrix: TCAM-equivalent array producing the match vector;
//   - priority matrix: n×n boolean array, P[i][j] = rule i beats rule j,
//     reduced by per-column NOR into a one-hot report vector;
//   - global priority matrix: the same structure over subtables;
//   - interval scheduling: each subtable owns a contiguous range of the
//     priority space delimited by its maximum priority, so an insertion
//     reallocates at most one existing rule.
//
// A Device is safe for concurrent use: updates serialize on its mutex,
// and lookups run lock-free over the published epoch snapshot
// (snapshot.go), so any number of goroutines classify while one
// updates. The hardware's own request FIFO is modelled separately, in
// internal/pipeline.
package core

import "fmt"

// Rank is the strict total order CATCAM stores and compares. The paper
// assumes matched rules never share a priority; real OpenFlow rulesets
// (and range-expanded entries of one rule) can, so Rank extends the
// 16-bit priority with the rule ID (newer rule wins) and a per-entry
// sequence number (distinguishing range-expansion entries of one rule).
// All engines in this repository use the same order, so results are
// comparable.
type Rank struct {
	Priority int
	RuleID   int
	Seq      int
}

// Less reports whether r loses to o.
func (r Rank) Less(o Rank) bool {
	if r.Priority != o.Priority {
		return r.Priority < o.Priority
	}
	if r.RuleID != o.RuleID {
		return r.RuleID < o.RuleID
	}
	return r.Seq < o.Seq
}

// Beats reports whether r wins over o (the P[i][j] bit).
func (r Rank) Beats(o Rank) bool { return o.Less(r) }

func (r Rank) String() string {
	return fmt.Sprintf("(%d,%d,%d)", r.Priority, r.RuleID, r.Seq)
}
