// Command catcam-bench regenerates every table and figure from the
// paper's evaluation and checks the paper's claims against them. By
// default it runs the full matrix (ACL/FW/IPC × 1K/10K/20K, 1K
// updates); -quick shrinks it for a fast smoke run.
//
// Usage:
//
//	catcam-bench [-quick] [-updates n] [-experiment all|claims|fig1a|fig1b|
//	              table1|table2|table3|table4|table5|fig15|fig16|cpr|
//	              occupancy|ablation|energy|telemetry|rram]
//
// -experiment telemetry runs an instrumented ClassBench churn pass with
// the runtime telemetry registry attached and prints the latency
// quantile summary plus the full Prometheus text exposition — the same
// data cmd/catcam-serve exports live. -experiment claims prints the
// claims ledger's verdict table (claims.go) and exits nonzero when a
// claim fails; without -quick it also evaluates the full-scale rows.
// It is not part of all. The output is deterministic;
// testdata/quick.golden pins the -quick -updates 50 sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"catcam/internal/bench"
	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/metrics"
	"catcam/internal/pipeline"
	"catcam/internal/rram"
	"catcam/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "shrunken sizes for a fast smoke run")
	experiment := flag.String("experiment", "all", "which experiment to run (all, claims, or one section)")
	updates := flag.Int("updates", 1000, "updates per Table III/IV cell")
	flag.Parse()

	if err := run(os.Stdout, *experiment, *quick, *updates); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-bench:", err)
		os.Exit(1)
	}
}

// run writes the selected experiments' tables and figures, or the
// claims verdict table, to out.
func run(out io.Writer, experiment string, quick bool, updates int) error {
	names := []string{"all", "claims"}
	for _, s := range sections {
		names = append(names, s.name)
	}
	if !slices.Contains(names, experiment) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", experiment, strings.Join(names, ", "))
	}
	r, err := compute(experiment, quick, updates)
	if err != nil {
		return err
	}
	if experiment == "claims" {
		return writeClaims(out, r)
	}
	writeSections(out, r, experiment)
	return nil
}

// results holds every experiment catcam-bench runs, each computed
// once. The section renderers and the claims ledger both read it.
type results struct {
	quick bool

	fig1a  bench.Fig1aResult
	fig1b  []bench.Fig1bPoint
	system metrics.SystemMetrics // Table II, priced at the fill CPR
	rows   []bench.UpdateCostRow // Table III/IV cells
	cprs   map[string]bench.CPRStats
	occ    bench.OccupancyResult
	fig15  []bench.Fig15Row

	matchCurve, prioCurve []metrics.EnergyPoint

	colWrite, arbitration, scheduling bench.AblationRow

	energyLabel string
	energy      bench.EnergyReport

	tele struct {
		label     string
		updates   int
		occupancy float64
		reg       *telemetry.Registry
	}

	wear, softWear rram.Lifetime // §IX at the Table II update rate, and at 1M updates/s

	pipelineRate float64 // §VI lookups per cycle with a live update in-stream
}

// compute runs what the experiment needs: one section's inputs, or
// every input for all and for claims.
func compute(experiment string, quick bool, updates int) (*results, error) {
	need := func(name string) bool {
		return experiment == "all" || experiment == "claims" || experiment == name
	}
	matrixCfg := bench.DefaultMatrixConfig()
	matrixCfg.Updates = updates
	fig15Size := 10000
	if quick {
		matrixCfg.Sizes = []int{1000}
		matrixCfg.Updates = min(updates, 300)
		fig15Size = 1000
	}
	r := &results{quick: quick}

	if need("fig1a") {
		r.fig1a = bench.Fig1a()
	}
	if need("fig1b") {
		r.fig1b = bench.Fig1b(10)
	}
	if need("table2") || need("table3") || need("table4") || need("cpr") {
		var err error
		if r.rows, r.cprs, err = bench.RunUpdateMatrix(matrixCfg); err != nil {
			return nil, err
		}
	}
	// Table II's update rate, the occupancy section and the RRAM
	// projection share one fill-to-failure run: the paper's update rate
	// derives from the CPR measured at high occupancy (§VIII-A further
	// benchmarking, 28%/72% split), not from the lightly-loaded churn of
	// Table III.
	if need("table2") || need("occupancy") || need("rram") {
		r.occ = bench.Occupancy(1)
		r.system = metrics.ComputeSystem(core.Prototype(), r.occ.InsertCPR)
	}
	if need("fig15") {
		w := bench.NewWorkload(classbench.ACL, fig15Size,
			bench.WorkloadOptions{Updates: 10, Headers: 1000, FlatPorts: true})
		var err error
		if r.fig15, err = bench.Fig15(w); err != nil {
			return nil, err
		}
		// Only the ledger reads the §VI pipeline rate.
		if experiment == "claims" {
			if r.pipelineRate, err = pipelineRate(w); err != nil {
				return nil, err
			}
		}
	}
	if need("fig16") {
		points := []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256}
		r.matchCurve = metrics.MatchEnergyCurve(640, points)
		r.prioCurve = metrics.PriorityEnergyCurve(points)
	}
	if need("ablation") {
		r.colWrite = bench.ColumnWriteAblation(core.Prototype())
		r.arbitration = bench.GlobalArbitrationAblation(256, 8)
		r.scheduling = bench.SchedulingAblation(3)
	}
	if need("energy") {
		w := bench.NewWorkload(classbench.ACL, 5000,
			bench.WorkloadOptions{Updates: 10, Headers: 2000, FlatPorts: true})
		var err error
		if r.energy, err = bench.MeasuredEnergy(w); err != nil {
			return nil, err
		}
		r.energyLabel = w.Label()
	}
	if need("telemetry") {
		w := bench.NewWorkload(classbench.ACL, fig15Size,
			bench.WorkloadOptions{Updates: matrixCfg.Updates, Headers: 1000, FlatPorts: true})
		r.tele.reg = telemetry.NewRegistry()
		dev, err := bench.RunTelemetryChurn(w, core.Compact(), r.tele.reg)
		if err != nil {
			return nil, err
		}
		r.tele.label, r.tele.updates, r.tele.occupancy = w.Label(), len(w.Trace), dev.Occupancy()
	}
	if need("rram") {
		cb := rram.New(256, 0)
		r.wear = cb.ProjectLifetime(r.system.UpdateRateMOPS * 1e6)
		r.softWear = cb.ProjectLifetime(1e6)
	}
	return r, nil
}

// pipelineRate drives the §VI request path: the workload's rules but
// the last are installed, then 10K lookups stream through the FIFO and
// the 3-stage pipeline with the last rule inserted live mid-stream.
func pipelineRate(w *bench.Workload) (float64, error) {
	d := core.NewDevice(core.Compact())
	rs := w.Ruleset.Rules
	for _, r := range rs[:len(rs)-1] {
		if _, err := d.InsertRule(r); err != nil {
			return 0, err
		}
	}
	var reqs []pipeline.Request
	for i := 0; i < 10000; i++ {
		reqs = append(reqs, pipeline.Request{Kind: pipeline.Lookup, Tag: i, Header: w.Headers[i%len(w.Headers)]})
		if i == 5000 {
			reqs = append(reqs, pipeline.Request{Kind: pipeline.Insert, Tag: -1, Rule: rs[len(rs)-1]})
		}
	}
	eng := pipeline.New(d, 64)
	if _, err := eng.Run(reqs); err != nil {
		return 0, err
	}
	return eng.Throughput(), nil
}

// sections lists what -experiment all prints, in order.
var sections = []struct {
	name, title string
	render      func(*results) string
}{
	{"fig1a", "Fig 1(a)", func(r *results) string { return bench.FormatFig1a(r.fig1a) }},
	{"fig1b", "Fig 1(b)", func(r *results) string { return bench.FormatFig1b(r.fig1b) }},
	{"table1", "Table I", func(*results) string { return bench.FormatTableI(metrics.TableI()) }},
	{"table2", "Table II", func(r *results) string {
		return bench.FormatTableII(r.system) +
			fmt.Sprintf("(update rate uses CPR %.2f measured at %.0f%% occupancy; light-load churn CPR %.2f)\n",
				r.occ.InsertCPR, r.occ.Occupancy*100, lightCPR(r.cprs))
	}},
	{"table3", "Table III", func(r *results) string { return bench.FormatTableIII(r.rows) }},
	{"table4", "Table IV", func(r *results) string { return bench.FormatTableIV(r.rows) }},
	{"table5", "Table V", func(*results) string { return bench.FormatTableV(metrics.TableV()) }},
	{"fig15", "Fig 15", func(r *results) string { return bench.FormatFig15(r.fig15) }},
	{"fig16", "Fig 16", func(r *results) string { return bench.FormatFig16(r.matchCurve, r.prioCurve) }},
	{"cpr", "CPR breakdown (§VIII-A)", func(r *results) string { return bench.FormatCPR(r.cprs) }},
	{"occupancy", "Occupancy (§VIII-B)", func(r *results) string { return bench.FormatOccupancy(r.occ) }},
	{"ablation", "Design ablations", func(r *results) string {
		return bench.FormatAblation([]bench.AblationRow{r.colWrite, r.arbitration, r.scheduling})
	}},
	{"energy", "Measured lookup energy (§VIII-C)", func(r *results) string {
		return bench.FormatEnergyReport(r.energyLabel, r.energy)
	}},
	{"telemetry", "Telemetry (runtime observability)", func(r *results) string {
		var b strings.Builder
		fmt.Fprintf(&b, "workload %s: %d updates, occupancy %.0f%%\n",
			r.tele.label, r.tele.updates, r.tele.occupancy*100)
		b.WriteString(bench.FormatTelemetrySummary(r.tele.reg))
		b.WriteString("\n--- Prometheus exposition (/metrics) ---\n")
		r.tele.reg.WritePrometheus(&b) // a strings.Builder does not fail
		return b.String()
	}},
	{"rram", "RRAM endurance projection (§IX future work)", func(r *results) string {
		return fmt.Sprintf("priority matrix as a 256x256 RRAM crossbar, endurance %.0e writes/cell\n", rram.Endurance) +
			fmt.Sprintln(r.wear) +
			fmt.Sprintln(r.softWear, "(a softer 1M updates/s workload)") +
			"-> the paper's conclusion: RRAM-based CATCAM fails within hours at full rate\n"
	}},
}

// writeSections prints every section the experiment selects.
func writeSections(out io.Writer, r *results, experiment string) {
	for _, s := range sections {
		if experiment == "all" || experiment == s.name {
			fmt.Fprintf(out, "\n================ %s ================\n", s.title)
			fmt.Fprint(out, s.render(r))
		}
	}
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
