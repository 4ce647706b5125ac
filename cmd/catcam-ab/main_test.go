package main

import (
	"math"
	"testing"
)

// TestSignTest holds the two-sided sign-test p-values to the binomial
// tails worked by hand.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		k, n int
		p    float64
	}{
		{0, 10, 2.0 / 1024},
		{1, 10, 2 * 11.0 / 1024},
		{2, 10, 2 * 56.0 / 1024},
		{5, 10, 1},
		{0, 0, 1},
		{0, 1, 1},
	} {
		if got := signTest(c.k, c.n); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.k, c.n, got, c.p)
		}
	}
}

// TestJudge fabricates pairs and checks each verdict: a consistent
// large gain or loss, a consistent gain too small to matter, a large
// median without a consistent direction, noise around 1, and ties.
func TestJudge(t *testing.T) {
	ratios := func(rs ...float64) []pair {
		ps := make([]pair, len(rs))
		for i, r := range rs {
			ps[i] = pair{A: 100, B: 100 * r}
		}
		return ps
	}
	for _, c := range []struct {
		name  string
		pairs []pair
		want  string
	}{
		{"a gain in every pair", ratios(0.6, 0.62, 0.58, 0.65, 0.61, 0.6, 0.59, 0.63, 0.6, 0.64), "better"},
		{"a gain in nine of ten", ratios(0.6, 0.62, 0.58, 1.05, 0.61, 0.6, 0.59, 0.63, 0.6, 0.64), "better"},
		{"a loss in every pair", ratios(1.2, 1.3, 1.25, 1.22, 1.21, 1.4, 1.2, 1.19, 1.3, 1.22), "worse"},
		{"a gain too small to matter", ratios(0.99, 0.98, 0.99, 0.985, 0.99, 0.98, 0.99, 0.99, 0.98, 0.99), "same"},
		{"noise around one", ratios(0.97, 1.02, 1.01, 0.99, 1.03, 0.98, 1.0, 1.01, 0.99, 1.02), "same"},
		{"a large median, no direction", ratios(0.5, 1.4, 0.6, 1.3, 0.7, 1.2, 0.6, 1.5, 0.7, 0.9), "unresolved"},
		{"seven of ten", ratios(0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.2, 1.2, 1.2), "unresolved"},
		{"ties", ratios(1, 1, 1, 1, 1, 1, 1, 1, 1, 1), "same"},
	} {
		if v := judge(c.pairs); v.verdict != c.want {
			t.Errorf("%s: %+v, want %s", c.name, v, c.want)
		}
	}
}

// TestParseBench reads ns/op from test binary output, suffix kept and
// other lines skipped.
func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: catcam/internal/core
BenchmarkSearchInto-2          	 7293036	       147.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkPublish/ACL-1K/delete-2 	   10000	     20123 ns/op
BenchmarkBroken-2 --- FAIL
PASS
`
	got := parseBench(out)
	if len(got) != 2 || got["BenchmarkSearchInto-2"] != 147.6 || got["BenchmarkPublish/ACL-1K/delete-2"] != 20123 {
		t.Fatalf("parsed %v", got)
	}
}
