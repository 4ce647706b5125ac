package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// The verdict's thresholds: the sign test's significance level, and
// how far from 1 a median ratio may lie and still read same.
const (
	alpha = 0.05
	tol   = 0.03
)

// pair is one pair of runs of a rung: A's and B's ns/op.
type pair struct{ A, B float64 }

// verdict is one rung's judgement over its pairs: the median ns/op of
// each side, the median of the paired ratios B/A, how many pairs B won
// and lost (ties count as neither), the sign test's two-sided p-value
// and the verdict word.
type verdict struct {
	medA, medB, ratio float64
	better, worse     int
	p                 float64
	verdict           string
}

// judge returns the verdict of a rung's pairs. It is better (worse)
// when the sign test rejects "no difference" at alpha, B won (lost)
// more pairs, and the median ratio lies below 1-tol (above 1+tol):
// both a consistent direction and a size that matters. It is same when
// the median ratio lies within tol of 1, and unresolved otherwise.
func judge(pairs []pair) verdict {
	var v verdict
	as, bs, rs := make([]float64, len(pairs)), make([]float64, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		as[i], bs[i], rs[i] = p.A, p.B, p.B/p.A
		switch {
		case p.B < p.A:
			v.better++
		case p.B > p.A:
			v.worse++
		}
	}
	v.medA, v.medB, v.ratio = median(as), median(bs), median(rs)
	v.p = signTest(min(v.better, v.worse), v.better+v.worse)
	switch {
	case v.p < alpha && v.better > v.worse && v.ratio < 1-tol:
		v.verdict = "better"
	case v.p < alpha && v.worse > v.better && v.ratio > 1+tol:
		v.verdict = "worse"
	case math.Abs(v.ratio-1) <= tol:
		v.verdict = "same"
	default:
		v.verdict = "unresolved"
	}
	return v
}

// median returns the median of xs, the mean of the middle two for an
// even count; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// signTest returns the two-sided p-value of k or fewer wins out of n
// fair coin flips, doubled and capped at 1: the chance that pairs
// differing only by noise split at least this unevenly.
func signTest(k, n int) float64 {
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

// parseBench returns the ns/op of every benchmark result line in a
// test binary's output, by name with its -GOMAXPROCS suffix.
func parseBench(out string) map[string]float64 {
	res := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(f); i++ {
			if f[i+1] == "ns/op" {
				if ns, err := strconv.ParseFloat(f[i], 64); err == nil {
					res[f[0]] = ns
				}
				break
			}
		}
	}
	return res
}
