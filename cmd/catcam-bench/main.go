// Command catcam-bench regenerates every table and figure from the
// paper's evaluation. By default it runs the full matrix (ACL/FW/IPC ×
// 1K/10K/20K, 1K updates); -quick shrinks it for a fast smoke run.
//
// Usage:
//
//	catcam-bench [-quick] [-experiment all|fig1a|fig1b|table1|table2|
//	              table3|table4|table5|fig15|fig16|cpr|occupancy|ablation]
//	             [-telemetry]
//
// -telemetry additionally runs an instrumented ClassBench churn pass
// with the runtime telemetry registry attached and prints the latency
// quantile summary plus the full Prometheus text exposition — the same
// data cmd/catcam-serve exports live. The output is deterministic;
// testdata/quick.golden pins the -quick -updates 50 sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"catcam/internal/bench"
	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/metrics"
	"catcam/internal/rram"
	"catcam/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "shrunken sizes for a fast smoke run")
	experiment := flag.String("experiment", "all", "which experiment to run")
	updates := flag.Int("updates", 1000, "updates per Table III/IV cell")
	rtUpdates := flag.Int("rt-updates", 200, "RuleTris sample size on rulesets >= 10K (its per-update firmware work is the quantity under test; averages are reported over this shorter trace)")
	withTelemetry := flag.Bool("telemetry", false, "run an instrumented churn pass and print quantiles + Prometheus text")
	flag.Parse()

	if err := run(os.Stdout, *experiment, *quick, *updates, *rtUpdates, *withTelemetry); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-bench:", err)
		os.Exit(1)
	}
}

// run writes the selected experiments' tables and figures to out.
func run(out io.Writer, experiment string, quick bool, updates, rtUpdates int, withTelemetry bool) error {
	matrixCfg := bench.DefaultMatrixConfig()
	matrixCfg.Updates = updates
	matrixCfg.RuleTrisUpdates = rtUpdates
	fig15Size := 10000
	if quick {
		matrixCfg.Sizes = []int{1000}
		matrixCfg.Updates = min(updates, 300)
		fig15Size = 1000
	}

	section := func(name string) {
		fmt.Fprintf(out, "\n================ %s ================\n", name)
	}
	want := func(name string) bool { return experiment == "all" || experiment == name }

	needMatrix := experiment == "all" || experiment == "table3" ||
		experiment == "table4" || experiment == "cpr" || experiment == "table2"
	var rows []bench.UpdateCostRow
	var cprs map[string]bench.CPRStats
	if needMatrix {
		var err error
		rows, cprs, err = bench.RunUpdateMatrix(matrixCfg)
		if err != nil {
			return err
		}
	}
	// Table II's update rate and the occupancy section share one
	// fill-to-failure run.
	var occ bench.OccupancyResult
	if want("table2") || want("occupancy") {
		occ = bench.Occupancy(1)
	}

	if want("fig1a") {
		section("Fig 1(a)")
		fmt.Fprint(out, bench.FormatFig1a(bench.Fig1a()))
	}
	if want("fig1b") {
		section("Fig 1(b)")
		fmt.Fprint(out, bench.FormatFig1b(bench.Fig1b(10)))
	}
	if want("table1") {
		section("Table I")
		fmt.Fprint(out, bench.FormatTableI(metrics.TableI()))
	}
	if want("table2") {
		section("Table II")
		// The paper's update rate derives from the CPR measured at high
		// occupancy (§VIII-A further benchmarking, 28%/72% split), which
		// is the fill-to-failure regime, not the lightly-loaded churn of
		// Table III.
		fmt.Fprint(out, bench.FormatTableII(metrics.ComputeSystem(core.Prototype(), occ.InsertCPR)))
		fmt.Fprintf(out, "(update rate uses CPR %.2f measured at %.0f%% occupancy; light-load churn CPR %.2f)\n",
			occ.InsertCPR, occ.Occupancy*100, lightCPR(cprs))
	}
	if want("table3") {
		section("Table III")
		fmt.Fprint(out, bench.FormatTableIII(rows))
	}
	if want("table4") {
		section("Table IV")
		fmt.Fprint(out, bench.FormatTableIV(rows))
	}
	if want("table5") {
		section("Table V")
		fmt.Fprint(out, bench.FormatTableV(metrics.TableV()))
	}
	if want("fig15") {
		section("Fig 15")
		w := bench.NewWorkload(classbench.ACL, fig15Size,
			bench.WorkloadOptions{Updates: 10, Headers: 1000, FlatPorts: true})
		f15, err := bench.Fig15(w)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFig15(f15))
	}
	if want("fig16") {
		section("Fig 16")
		points := []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256}
		fmt.Fprint(out, bench.FormatFig16(
			metrics.MatchEnergyCurve(640, points),
			metrics.PriorityEnergyCurve(points)))
	}
	if want("cpr") {
		section("CPR breakdown (§VIII-A)")
		fmt.Fprint(out, bench.FormatCPR(cprs))
	}
	if want("occupancy") {
		section("Occupancy (§VIII-B)")
		fmt.Fprint(out, bench.FormatOccupancy(occ))
	}
	if want("ablation") {
		section("Design ablations")
		fmt.Fprint(out, bench.FormatAblation([]bench.AblationRow{
			bench.ColumnWriteAblation(core.Prototype()),
			bench.GlobalArbitrationAblation(256, 8),
			bench.SchedulingAblation(3),
		}))
	}
	if want("energy") {
		section("Measured lookup energy (§VIII-C)")
		w := bench.NewWorkload(classbench.ACL, 5000,
			bench.WorkloadOptions{Updates: 10, Headers: 2000, FlatPorts: true})
		rep, err := bench.MeasuredEnergy(w)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatEnergyReport(w.Label(), rep))
	}
	if withTelemetry || want("telemetry") {
		section("Telemetry (runtime observability)")
		w := bench.NewWorkload(classbench.ACL, fig15Size,
			bench.WorkloadOptions{Updates: matrixCfg.Updates, Headers: 1000, FlatPorts: true})
		reg := telemetry.NewRegistry()
		ring := telemetry.NewEventRing(256)
		dev, err := bench.RunTelemetryChurn(w, core.Compact(), reg, ring)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "workload %s: %d updates, occupancy %.0f%%\n",
			w.Label(), len(w.Trace), dev.Occupancy()*100)
		fmt.Fprint(out, bench.FormatTelemetrySummary(reg))
		fmt.Fprintf(out, "(trace ring retains %d of %d events)\n", len(ring.Snapshot()), ring.Total())
		fmt.Fprintln(out, "\n--- Prometheus exposition (/metrics) ---")
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
	}
	if want("rram") {
		section("RRAM endurance projection (§IX future work)")
		cb := rram.New(256, 0)
		m := metrics.ComputeSystem(core.Prototype(), 4.4)
		fmt.Fprintf(out, "priority matrix as a 256x256 RRAM crossbar, endurance %.0e writes/cell\n", rram.Endurance)
		fmt.Fprintln(out, cb.ProjectLifetime(m.UpdateRateMOPS*1e6))
		fmt.Fprintln(out, cb.ProjectLifetime(1e6), "(a softer 1M updates/s workload)")
		fmt.Fprintln(out, "-> the paper's conclusion: RRAM-based CATCAM fails within hours at full rate")
	}
	return nil
}

func lightCPR(cprs map[string]bench.CPRStats) float64 {
	if len(cprs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cprs {
		sum += c.OverallCPR
	}
	return sum / float64(len(cprs))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
