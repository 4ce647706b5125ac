package selftest_test

import (
	"strings"
	"testing"

	"catcam/internal/analysis"
	"catcam/internal/analysis/framework"
)

// suite is the list catcam-lint runs, so the canary proves the
// binary's analyzers and not a copy of them.
var suite = analysis.Analyzers

// TestBadFileTripsEveryAnalyzer is the canary's canary: running the
// suite over this package with the selftest tag must produce at least
// one finding from every analyzer. An analyzer that stays silent here
// has gone vacuous and would rubber-stamp the real tree.
func TestBadFileTripsEveryAnalyzer(t *testing.T) {
	diags, err := framework.Run(framework.Config{
		Dir:      ".",
		Patterns: []string{"catcam/internal/analysis/selftest"},
		Tags:     []string{"catcamselftest"},
	}, suite)
	if err != nil {
		t.Fatalf("framework.Run: %v", err)
	}
	counts := make(map[string]int)
	var sawGuarded, sawWriteGuarded, sawOrderCycle, sawSnapshotWrite, sawSideLocal bool
	for _, d := range diags {
		counts[d.Analyzer]++
		switch {
		case d.Analyzer == "lockcheck" && strings.Contains(d.Message, "accesses n (guarded by mu)"):
			sawGuarded = true
		case d.Analyzer == "lockcheck" && strings.Contains(d.Message, "write-guarded"):
			sawWriteGuarded = true
		case d.Analyzer == "lockcheck" && d.Category == "lockorder":
			sawOrderCycle = true
		case d.Analyzer == "epochcheck" && strings.Contains(d.Message, "Mutate writes field rows"):
			sawSnapshotWrite = true
		case d.Analyzer == "ringcheck" && strings.Contains(d.Message, "ringT.headCache is written by both"):
			sawSideLocal = true
		}
	}
	for _, a := range suite {
		if counts[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing against bad.go; findings: %v", a.Name, diags)
		}
	}
	// lockcheck runs several rules; each must still fire on its own
	// canary: an unguarded access (counter.Bump), an unlocked Store to
	// a //catcam:write-guarded-by field (pub.Publish) and the lockA/
	// lockB acquisition cycle.
	if !sawGuarded {
		t.Errorf("guarded-field access without the mutex (counter.Bump) not flagged; findings: %v", diags)
	}
	if !sawWriteGuarded {
		t.Errorf("unlocked snapshot publication (pub.Publish) not flagged by the write-guarded-by rule; findings: %v", diags)
	}
	if !sawOrderCycle {
		t.Errorf("lock-order cycle (abDown/baUp) not flagged; findings: %v", diags)
	}
	// An in-place write to published snapshot state must trip
	// epochcheck's write-dead rule.
	if !sawSnapshotWrite {
		t.Errorf("snapshot write after construction (view.Mutate) not flagged; findings: %v", diags)
	}
	// A consumer writing the producer's side-local copy of head must
	// trip ringcheck's field-ownership rule.
	if !sawSideLocal {
		t.Errorf("consumer write to the producer's head copy (ringT.peek) not flagged; findings: %v", diags)
	}
}

// TestPackageCleanWithoutTag checks the flip side: with the tag off,
// bad.go is out of the build and this package lints clean, so the
// regular `make lint` run over ./... is unaffected by the canary.
func TestPackageCleanWithoutTag(t *testing.T) {
	diags, err := framework.Run(framework.Config{
		Dir:      ".",
		Patterns: []string{"catcam/internal/analysis/selftest"},
	}, suite)
	if err != nil {
		t.Fatalf("framework.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding without the selftest tag: %s", d)
	}
}
