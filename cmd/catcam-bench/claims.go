package main

import (
	"fmt"
	"io"
	"math"

	"catcam/internal/bench"
	"catcam/internal/netsim"
)

// claim is one row of the claims ledger: a numeric claim of the paper's
// evaluation and the one experiment result that checks it. Where the
// reproduction deliberately deviates from the paper (EXPERIMENTS.md
// says why), want holds the reproduced value and paper the published
// one, so a model change that moves either side of the gap fails.
type claim struct {
	name   string                 // named after its paper section
	paper  string                 // the paper's value, as published
	format string                 // how the measured value prints; EXPERIMENTS.md quotes it
	want   bound                  // the reproduction's value with a tolerance, or a relation
	full   bool                   // needs the full-scale sweep (10K/20K rulesets)
	value  func(*results) float64 // the result field the claim reads
}

// bound is a tolerance around a value ("±") or a relation ("≥", "≤").
type bound struct {
	rel    string
	v, tol float64
}

func near(v, tol float64) bound { return bound{"±", v, tol} }
func atLeast(v float64) bound   { return bound{"≥", v, 0} }
func atMost(v float64) bound    { return bound{"≤", v, 0} }

func (b bound) holds(x float64) bool {
	switch b.rel {
	case "≥":
		return x >= b.v
	case "≤":
		return x <= b.v
	}
	return math.Abs(x-b.v) <= b.tol
}

func (b bound) String() string {
	if b.rel == "±" {
		return fmt.Sprintf("%g ± %g", b.v, b.tol)
	}
	return fmt.Sprintf("%s %g", b.rel, b.v)
}

// check evaluates the claim on r, returning the measured value in the
// row's format.
func (c claim) check(r *results) (measured string, ok bool) {
	v := c.value(r)
	return fmt.Sprintf(c.format, v), c.want.holds(v)
}

// ledger is every numeric claim EXPERIMENTS.md states, in the paper's
// order.
var ledger = []claim{
	{name: "Fig 1(a) naive divergence", paper: "~300 ms", format: "%.0f ms", want: near(600, 1),
		value: func(r *results) float64 { return netsim.MaxDivergenceMs(r.fig1a.Naive) }},
	{name: "Fig 1(a) CATCAM divergence", paper: "~0", format: "%.0f ns", want: atMost(10),
		value: func(r *results) float64 { return netsim.MaxDivergenceMs(r.fig1a.CATCAM) * 1e6 }},
	{name: "Fig 1(b) worst insert at 1000 rules", paper: "> 200 ms", format: "%.0f ms", want: near(582, 1),
		value: func(r *results) float64 { return r.fig1b[len(r.fig1b)-1].WorstMs }},

	{name: "Table II power", paper: "16.7 W", format: "%.1f W", want: near(16.4, 0.05),
		value: func(r *results) float64 { return r.system.PowerW }},
	{name: "Table II area", paper: "48.8 mm²", format: "%.1f mm²", want: near(47.9, 0.05),
		value: func(r *results) float64 { return r.system.AreaMM2 }},
	{name: "Table II lookup rate", paper: "500 MOPS", format: "%.0f MOPS", want: near(500, 0.5),
		value: func(r *results) float64 { return r.system.LookupRateMOPS }},
	{name: "Table II update rate", paper: "100 MOPS", format: "%.0f MOPS", want: near(112.6, 0.1),
		value: func(r *results) float64 { return r.system.UpdateRateMOPS }},
	{name: "Table II priority power overhead", paper: "0.3 %", format: "%.2f %% power", want: near(0.24, 0.005),
		value: func(r *results) float64 { pow, _ := r.system.PriorityOverhead(); return pow * 100 }},

	{name: "§VIII-A CPR", paper: "4.4", format: "CPR %.2f", want: near(4.44, 0.005),
		value: func(r *results) float64 { return r.occ.InsertCPR }},
	{name: "§VIII-A 3-cycle inserts", paper: "28 %", format: "%.0f %% direct", want: near(28, 0.5),
		value: func(r *results) float64 { return r.occ.DirectFraction * 100 }},
	{name: "§VIII-A 5-cycle inserts", paper: "72 %", format: "%.0f %% realloc", want: near(72, 0.5),
		value: func(r *results) float64 { return (1 - r.occ.DirectFraction) * 100 }},
	{name: "§VIII-A max moves, every Table III cell", paper: "1", format: "max %.0f", want: atMost(1),
		value: func(r *results) float64 { return maxCATCAMMoves(r.rows) }},

	{name: "§VIII-B occupancy", paper: "78 %", format: "%.1f %% occupancy", want: near(81.1, 0.05),
		value: func(r *results) float64 { return r.occ.Occupancy * 100 }},
	{name: "§VIII-B average update", paper: "8.9 ns", format: "average update %.1f ns", want: near(8.9, 0.05),
		value: func(r *results) float64 { return r.occ.AvgUpdateNs }},

	{name: "Fig 15 CATCAM lookup rate", paper: "500 MOPS", format: "%.0f MOPS", want: near(500, 0.5),
		value: func(r *results) float64 { return fig15(r, "CATCAM").MOPS }},
	{name: "Fig 15 CATCAM over OvS (TSS)", paper: "≥ 10×", format: "%.0f×", want: atLeast(10),
		value: func(r *results) float64 { return fig15(r, "CATCAM").MOPS / fig15(r, "TSS").MOPS }},

	{name: "Fig 16 match energy, 256 entries", paper: "0.78 fJ/bit", format: "%.2f fJ/bit", want: near(0.78, 0.005),
		value: func(r *results) float64 { return r.matchCurve[len(r.matchCurve)-1].PerBitFJ }},
	{name: "Fig 16 priority energy, 256 entries", paper: "0.59 fJ/bit", format: "%.2f fJ/bit", want: near(0.59, 0.005),
		value: func(r *results) float64 { return r.prioCurve[len(r.prioCurve)-1].PerBitFJ }},
	{name: "§VIII-C priority energy share", paper: "negligible", format: "%.1f %% of lookup energy", want: near(0.2, 0.05),
		value: func(r *results) float64 { return r.energy.PriorityShare * 100 }},

	{name: "§V-B dual-voltage column write", paper: "O(1) vs O(n)", format: "%.0f× update-latency", want: near(86, 0.5),
		value: func(r *results) float64 { return r.colWrite.AltV / r.colWrite.PaperV }},
	{name: "§VI global arbitration", paper: "2 of 256 matrices", format: "%.0f× priority-decision energy", want: near(128, 0.5),
		value: func(r *results) float64 { return r.arbitration.AltV / r.arbitration.PaperV }},
	{name: "§IV-B fresh-subtable worst moves", paper: "1", format: "stay at %.0f", want: atMost(1),
		value: func(r *results) float64 { return r.scheduling.PaperV }},
	{name: "§IV-B chained worst moves", paper: "> 1", format: "%.0f moves", want: atLeast(2),
		value: func(r *results) float64 { return r.scheduling.AltV }},
	{name: "§VI pipeline lookup rate", paper: "1 lookup/cycle", format: "%.3f lookups/cycle", want: near(0.999, 0.0005),
		value: func(r *results) float64 { return r.pipelineRate }},
	{name: "§IX RRAM hot-slot wear-out", paper: "within hours", format: "%.1f hours", want: near(2.47, 0.01),
		value: func(r *results) float64 { return r.wear.HotSlotSeconds / 3600 }},

	{name: "Table IV speedup, every 1K cell", paper: "≥ 3 orders of magnitude", format: "%.0f× at 1K", want: atLeast(100),
		value: func(r *results) float64 { return minSpeedup(r, "", 1000) }},

	{name: "Table III ACL 10K CATCAM avg moves", paper: "0.35", format: "%.2f / 1", want: near(0.13, 0.005), full: true,
		value: func(r *results) float64 { return acl10K(r, "CATCAM").AvgMoves }},
	{name: "Table IV ACL 10K Naive", paper: "3500 ms", format: "%.2f s", want: near(3.01, 0.005), full: true,
		value: func(r *results) float64 { return acl10K(r, "Naive").AvgFirmwareNs / 1e9 }},
	{name: "Table IV ACL 10K FastRule", paper: "35 µs", format: "%.1f µs", want: near(26.2, 0.05), full: true,
		value: func(r *results) float64 { return acl10K(r, "FastRule").AvgFirmwareNs / 1e3 }},
	{name: "Table IV ACL 10K RuleTris", paper: "400 ms", format: "%.1f ms", want: near(44.9, 0.05), full: true,
		value: func(r *results) float64 { return acl10K(r, "RuleTris").AvgFirmwareNs / 1e6 }},
	{name: "Table IV ACL 10K POT", paper: "57 µs", format: "%.1f µs", want: near(43.7, 0.05), full: true,
		value: func(r *results) float64 { return acl10K(r, "POT").AvgFirmwareNs / 1e3 }},
	{name: "Table IV ACL 10K CATCAM", paper: "7.4 ns", format: "%.1f ns", want: near(4.5, 0.05), full: true,
		value: func(r *results) float64 { return acl10K(r, "CATCAM").AvgFirmwareNs }},
	{name: "Table IV speedup, ACL 10K", paper: "≥ 3 orders of magnitude", format: "%.0f×", want: atLeast(1000), full: true,
		value: func(r *results) float64 { return minSpeedup(r, "ACL", 10000) }},
}

func maxCATCAMMoves(rows []bench.UpdateCostRow) float64 {
	worst := 0
	for _, row := range rows {
		if row.Algorithm == "CATCAM" {
			worst = max(worst, row.MaxMoves)
		}
	}
	return float64(worst)
}

func fig15(r *results, engine string) bench.Fig15Row {
	for _, row := range r.fig15 {
		if row.Engine == engine {
			return row
		}
	}
	return bench.Fig15Row{}
}

func acl10K(r *results, algo string) bench.UpdateCostRow {
	for _, row := range r.rows {
		if row.Family == "ACL" && row.Size == 10000 && row.Algorithm == algo {
			return row
		}
	}
	return bench.UpdateCostRow{}
}

// minSpeedup is the smallest ratio of a Table IV baseline's firmware
// time to CATCAM's over the cells of one size (and family, if given).
func minSpeedup(r *results, family string, size int) float64 {
	catcam := map[string]float64{}
	for _, row := range r.rows {
		if row.Algorithm == "CATCAM" && row.Size == size {
			catcam[row.Family] = row.AvgFirmwareNs
		}
	}
	lowest := math.Inf(1)
	for _, row := range r.rows {
		if row.Size == size && (family == "" || row.Family == family) &&
			row.Algorithm != "CATCAM" && row.Algorithm != "TreeCAM" { // TreeCAM is not in Table IV
			lowest = math.Min(lowest, row.AvgFirmwareNs/catcam[row.Family])
		}
	}
	return lowest
}

// writeClaims prints the ledger's verdict table: every row at full
// scale, the quick-scale rows under -quick. It fails when a claim does.
func writeClaims(out io.Writer, r *results) error {
	fmt.Fprintf(out, "%-42s %-24s %-34s %-18s %s\n", "claim", "paper", "measured", "expected", "verdict")
	failed, checked := 0, 0
	for _, c := range ledger {
		if c.full && r.quick {
			continue
		}
		measured, ok := c.check(r)
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failed++
		}
		checked++
		fmt.Fprintf(out, "%-42s %-24s %-34s %-18s %s\n", c.name, c.paper, measured, c.want, verdict)
	}
	if skipped := len(ledger) - checked; skipped > 0 {
		fmt.Fprintf(out, "(%d full-scale rows skipped under -quick)\n", skipped)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d paper claims fail", failed, checked)
	}
	return nil
}
