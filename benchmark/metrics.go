package main

import (
	"cmp"
	"math"
	"slices"
)

// metricSpec is one row of the metric tables in README.md. The same
// rows, minus layer/moves/exact, are what BENCHMARK.json declares;
// main_test.go holds the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
	// Exact marks a count that must repeat bit-for-bit on the same
	// code and seed; -compare tests it for equality, not against Bound.
	Exact bool
}

// endToEnd lists what a user of the classify stack sees. Bounds are
// fixed here and nowhere else; README.md ("Bounds") has the spreads
// they were set from.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "table_heap_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "classify_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.25},
	{Name: "burst_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
}

// wholePhase lists the classify figures as ISSUE 11 defined them, with
// its bounds: packets over the wall time of the whole measured phase,
// and percentiles over every full burst of it, median of the rounds.
// They are printed beside the gated figures (which rest on the quiet
// slices only and have no tail among them), reported per layer as
// whole.<name> and compared by -compare, so that a slowdown of the mean
// or of the tail cannot hide.
// They are not end-to-end metrics of BENCHMARK.json because on the
// reference host they spread wider than the widest bound the benchmark
// contract allows (README.md, "Statistic").
var wholePhase = []metricSpec{
	{Name: "classify_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.10},
	{Name: "burst_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "burst_p99_us", Unit: "us", Better: "lower", Bound: 0.20},
}

// perLayer lists the single-layer metrics; layer = the prefix before
// the first dot, which is the module name under internal/.
var perLayer = []metricSpec{
	{Name: "ingress.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "ingress.traced_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "ingress.full_burst_share", Unit: "ratio", Better: "higher"},
	{Name: "ingress.ring_full_retries_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "ingress.starved_intervals", Unit: "count", Better: "lower"},
	{Name: "ingress.burst_p90_us", Unit: "us", Better: "lower"},
	{Name: "ingress.self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ingress.slowpath_ns_per_miss", Unit: "ns", Better: "lower"},
	{Name: "ingress.miss_batch_mean", Unit: "count", Better: "higher"},
	{Name: "ingress.misses_per_epoch", Unit: "count", Better: "lower"},
	{Name: "ingress.allocs_per_burst", Unit: "count", Better: "lower"},
	{Name: "ingress.dispatch_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ingress.ring_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ingress.flowcache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "ingress.flowcache_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.classify_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "flowtable.self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "cluster.lookup_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "cluster.fanout_overhead_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "cluster.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "core.active_subtables", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.update_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "core.update_allocs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.epochs_per_update", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.inline_update_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.inline_update_p99_us", Unit: "us", Better: "lower"},
	{Name: "sram.search_ns", Unit: "ns", Better: "lower"},
	{Name: "sram.searches_per_lookup", Unit: "count", Better: "lower", Exact: true},
	{Name: "sram.nor_ns", Unit: "ns", Better: "lower"},
	{Name: "sram.write_entry_ns", Unit: "ns", Better: "lower"},
	{Name: "sram.write_column_ns", Unit: "ns", Better: "lower"},
	{Name: "bitvec.andnot_any_ns", Unit: "ns", Better: "lower"},
	{Name: "rules.encode_header_ns", Unit: "ns", Better: "lower"},
	{Name: "rules.rows_per_rule", Unit: "count", Better: "lower", Exact: true},
	{Name: "model.update_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "model.lookup_cycles_per_lookup", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "model.match_energy_fj_per_lookup", Unit: "fJ", Better: "lower", Exact: true},
	{Name: "model.realloc_insert_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "observers.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "reconcile.unexplained_share", Unit: "ratio", Better: "lower"},
	{Name: "whole.classify_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "whole.burst_p50_us", Unit: "us", Better: "lower"},
	{Name: "whole.burst_p99_us", Unit: "us", Better: "lower"},
	{Name: "host.calib_mops", Unit: "Mops", Better: "higher"},
	{Name: "host.round_spread", Unit: "ratio", Better: "lower"},
}

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quietSlices returns the quarter of slices with the highest
// throughput, at least one.
//
// A mean over a run is what a user sees on that host in that minute,
// and on the 2-vCPU reference VM that wanders by a fifth from one hour
// to the next and by a quarter to two fifths between runs of one hour: a
// pinned, L1-resident integer loop runs up to twice as slowly for
// stretches of seconds, on each vCPU independently (README.md,
// "Statistic"). Disturbance only ever slows a slice down, so the quiet
// end of the slices is the steadiest thing a run can report about the
// code. A quarter of them, not the best one, so that every figure rests
// on many slices.
func quietSlices(all []sliceStat) []sliceStat {
	s := slices.Clone(all)
	slices.SortFunc(s, func(a, b sliceStat) int { return cmp.Compare(b.mpps(), a.mpps()) })
	return s[:(len(s)+3)/4]
}

// classifyFigures are the classify figures of a set of slices: their
// packets over their time, and percentiles of the full-burst service
// times they saw.
type classifyFigures struct {
	Mpps, BurstP50Us, BurstP90Us, BurstP99Us float64
	Packets, Bursts                          int
}

// figuresOf pools the slices: over all slices of a round these are the
// round's whole-phase figures.
func figuresOf(of []sliceStat) classifyFigures {
	var f classifyFigures
	var ns int64
	var bursts []int64
	for _, s := range of {
		f.Packets += s.Packets
		ns += s.Ns
		bursts = append(bursts, s.BurstNs...)
	}
	slices.Sort(bursts)
	f.Mpps = ratio(float64(f.Packets), float64(ns)) * 1e3
	f.BurstP50Us = quantileNs(bursts, 0.50) / 1e3
	f.BurstP90Us = quantileNs(bursts, 0.90) / 1e3
	f.BurstP99Us = quantileNs(bursts, 0.99) / 1e3
	f.Bursts = len(bursts)
	return f
}

// quietFiguresOf returns the gated end-to-end figures of a set of
// slices: throughput pooled over the quiet slices, and for each burst
// percentile the median over the quiet slices of the slice's own
// percentile. Pooling the bursts instead let one slice in which the slow
// share of bursts crossed 10 % move burst_p90_us of fastpath_hot from 2.8
// to 6 µs (README.md, "Statistic").
func quietFiguresOf(all []sliceStat) classifyFigures {
	quiet := quietSlices(all)
	f := figuresOf(quiet)
	var p50, p90 []float64
	for _, s := range quiet {
		if len(s.BurstNs) == 0 {
			continue
		}
		own := sortedCopy(s.BurstNs)
		p50 = append(p50, quantileNs(own, 0.50)/1e3)
		p90 = append(p90, quantileNs(own, 0.90)/1e3)
	}
	f.BurstP50Us, f.BurstP90Us = median(p50), median(p90)
	return f
}

// timings returns the figures by metric name.
func (f classifyFigures) timings() map[string]float64 {
	return map[string]float64{"classify_mpps": f.Mpps, "burst_p50_us": f.BurstP50Us,
		"burst_p90_us": f.BurstP90Us, "burst_p99_us": f.BurstP99Us}
}

// quartileSpread is the distance between the quartiles of vs
// (interpolated: for five rounds the second lowest and the second
// highest, for three half the distance from the lowest to the highest) as a share of their median.
func quartileSpread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return ratio(at(0.75)-at(0.25), at(0.5))
}

// minMax returns the extremes of vs (0, 0 for none).
func minMax(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quantileNs returns the q-quantile of sorted, in the samples' unit.
// The rank is the nearest one that leaves (1-q)·n samples beyond it.
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// sortedCopy returns vs sorted ascending without disturbing vs.
func sortedCopy[T cmp.Ordered](vs []T) []T {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// ratio is a/b, 0 when b is 0: a per-layer metric that does not apply
// to a workload (no cluster, no inline updates) reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
