package core

import "testing"

// TestSearchWalkSteps counts the match kernel's walk on the lookup
// rungs' recorded host searches (BenchmarkSearchInto): the pair steps a
// search takes before its accumulator empties, or all the listed pairs
// when it matches. The mean must stay at or below 22 steps, where the
// walk by single positions in falling care order took 45.9. The kernel's
// time follows the walk; run with -v for the figures.
func TestSearchWalkSteps(t *testing.T) {
	ls := lookupRung(t)
	steps, listed := 0, 0
	for _, s := range ls.searches {
		steps += s.view.WalkSteps(ls.keys[s.key])
		listed += s.view.ListedPairs()
	}
	n := float64(len(ls.searches))
	mean := float64(steps) / n
	t.Logf("%d host searches over %d lookups (%.2f a lookup): %.1f pair steps of %.1f listed pairs a search",
		len(ls.searches), len(ls.keys), n/float64(len(ls.keys)), mean, float64(listed)/n)
	if mean > 22 {
		t.Errorf("a host search walks %.1f pair steps, want <= 22", mean)
	}
}
