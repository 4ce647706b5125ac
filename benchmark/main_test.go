package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// manifest is BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workload.go in step, both ways.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		if got := m.PerLayer[i]; got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, s)
		}
	}
}

// smallRun is one all-workloads run at -scale 0.01, shared by the
// tests that only read its output.
var smallRun struct {
	once   sync.Once
	ok     bool
	err    error
	stdout string
	file   resultFile
}

func runSmall(t *testing.T) {
	t.Helper()
	smallRun.once.Do(func() {
		dir, err := os.MkdirTemp("", "layered-bench-test")
		if err != nil {
			smallRun.err = err
			return
		}
		defer os.RemoveAll(dir)
		var buf bytes.Buffer
		out := filepath.Join(dir, "all.json")
		smallRun.ok, smallRun.err = run(options{seed: 1, seconds: 10, scale: 0.01, plan: &roundPlan{Full: 1, UpdateOnly: 1}, results: dir, out: out}, &buf)
		smallRun.stdout = buf.String()
		if smallRun.err != nil {
			return
		}
		data, err := os.ReadFile(out)
		if err != nil {
			smallRun.err = err
			return
		}
		smallRun.err = json.Unmarshal(data, &smallRun.file)
	})
	if smallRun.err != nil {
		t.Fatal(smallRun.err)
	}
}

// TestEveryMetricReported: every metric BENCHMARK.json names is printed
// and recorded for every workload, and nothing else is.
func TestEveryMetricReported(t *testing.T) {
	runSmall(t)
	if !smallRun.ok {
		t.Fatalf("ops failed on an unfaulted run:\n%s", smallRun.stdout)
	}
	m := readManifest(t)
	sections := strings.Split(smallRun.stdout, "\n== ")[1:]
	if len(sections) != len(m.Workloads) {
		t.Fatalf("printed %d workload sections, want %d", len(sections), len(m.Workloads))
	}
	for i, w := range m.Workloads {
		if !strings.HasPrefix(sections[i], w.Name+" ") {
			t.Fatalf("section %d is not %s:\n%s", i, w.Name, sections[i])
		}
		res := smallRun.file.Workloads[w.Name]
		if res == nil {
			t.Fatalf("%s missing from the result file", w.Name)
		}
		for _, e := range m.EndToEnd {
			if !strings.Contains(sections[i], "\n"+e.Name+" ") {
				t.Errorf("%s: %s not printed", w.Name, e.Name)
			}
			if v, ok := res.EndToEnd[e.Name]; !ok || v.Unit != e.Unit {
				t.Errorf("%s: %s missing from the result file or unit %q != %q", w.Name, e.Name, v.Unit, e.Unit)
			}
		}
		for _, l := range m.PerLayer {
			if !strings.Contains(sections[i], "\n"+l.Name+" ") {
				t.Errorf("%s: %s not printed", w.Name, l.Name)
			}
			if _, ok := res.PerLayer[l.Name]; !ok {
				t.Errorf("%s: %s missing from the result file", w.Name, l.Name)
			}
		}
		if len(res.EndToEnd) != len(m.EndToEnd) || len(res.PerLayer) != len(m.PerLayer) {
			t.Errorf("%s reports %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
				w.Name, len(res.EndToEnd), len(res.PerLayer), len(m.EndToEnd), len(m.PerLayer))
		}
		if want := workloads[i].Procs; want != 0 && res.GOMAXPROCS != want {
			t.Errorf("%s: result file says GOMAXPROCS %d, want %d", w.Name, res.GOMAXPROCS, want)
		}
		if !strings.Contains(sections[i], "unexplained share") {
			t.Errorf("%s: reconcile line not printed", w.Name)
		}
	}
	if p := smallRun.file.Provenance; p.GoVersion == "" || p.NumCPU == 0 || p.GOMAXPROCS == 0 || p.Seed != 1 || p.CalibMops <= 0 {
		t.Errorf("provenance incomplete: %+v", p)
	}
}

// TestContractLine: with -workload the last line is the one JSON
// object a driver reads, carrying exactly one family of metrics.
func TestContractLine(t *testing.T) {
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		var buf bytes.Buffer
		dir := t.TempDir()
		ok, err := run(options{workload: "zipf_churn", seed: 2, seconds: 10, trace: trace, scale: 0.01, plan: &roundPlan{Full: 1, UpdateOnly: 1}, results: dir}, &buf)
		if err != nil || !ok {
			t.Fatalf("trace %d: ok %v err %v\n%s", trace, ok, err, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %d: last line is not the contract object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(specs) {
			t.Errorf("trace %d: %+v", trace, line)
		}
		for _, s := range specs {
			if got, ok := line.Metrics[s.Name]; !ok || got.Unit != s.Unit {
				t.Errorf("trace %d: metric %s missing or unit %q != %q", trace, s.Name, got.Unit, s.Unit)
			}
		}
		if trace == 1 {
			if _, err := os.Stat(filepath.Join(dir, "trace-zipf_churn.json")); err != nil {
				t.Errorf("span file not written: %v", err)
			}
		}
	}
}

// TestSeededFaultFails proves the quiescent check can fail: with the
// mirror missing one update the run reports ops_failed > 0 and is not
// ok, which main turns into a non-zero exit.
func TestSeededFaultFails(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	out := filepath.Join(dir, "r.json")
	ok, err := run(options{workload: "fastpath_hot", seed: 1, seconds: 10, scale: 0.01, plan: &roundPlan{Full: 1, UpdateOnly: 1},
		fault: faultSkipMirror, results: dir, out: out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("run with a faulted mirror reported ok:\n%s", buf.String())
	}
	var f resultFile
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workloads["fastpath_hot"].OpsFailed == 0 {
		t.Error("ops_failed is 0")
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Errorf("contract line does not say correct:false:\n%s", buf.String())
	}
}

// TestTruncatedTraceFailsSetUp: a .catp that lost its tail is an
// error from set-up, not a panic and not a shorter replay.
func TestTruncatedTraceFailsSetUp(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run(options{workload: "fastpath_hot", seed: 1, seconds: 10, scale: 0.01, plan: &roundPlan{Full: 1, UpdateOnly: 1},
		fault: faultTruncateCATP, results: t.TempDir()}, &buf)
	if err == nil || ok {
		t.Fatalf("truncated trace accepted: ok %v err %v", ok, err)
	}
	if !strings.Contains(err.Error(), "set-up") || !strings.Contains(err.Error(), "replay") {
		t.Errorf("error does not name the step: %v", err)
	}
}

// TestCompareVerdicts covers the rows -compare prints.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "z", Better: "lower", Bound: 0.01, Exact: true}
	v := func(med, lo, hi float64) value {
		return value{Value: med, Min: lo, Max: hi, Rounds: []float64{lo, lo, med, hi, hi}}
	}
	for _, c := range []struct {
		spec metricSpec
		a, b value
		want string
	}{
		{lower, v(100, 99, 101), v(104, 103, 105), "ok"},
		{lower, v(100, 99, 101), v(115, 114, 116), "REGRESSION"},
		{lower, v(100, 90, 112), v(101, 95, 104), "unresolved"},
		{lower, v(100, 90, 112), v(80, 75, 85), "better"},
		{higher, v(10, 9.9, 10.1), v(8.5, 8.4, 8.6), "REGRESSION"},
		{higher, v(10, 9.9, 10.1), v(12, 11.9, 12.1), "better"},
		{exact, v(38900.18, 38900, 38901), v(38900.2, 38900, 38901), "same"},
		{exact, v(38900, 38899, 38901), v(39100, 39099, 39101), "ok"},
		{exact, v(38900, 38899, 38901), v(39700, 39699, 39701), "REGRESSION"},
		{exact, v(38900, 38899, 38901), v(20100, 20099, 20101), "better"},
	} {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: verdict %q, want %q", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles: a whole-phase figure that got worse is printed but
// gates nothing, a gated one that got worse fails the comparison, and
// files made with different round counts are flagged.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, plan roundPlan, quiet, whole float64) string {
		v := func(x float64) value { return value{Value: x, Min: x, Max: x, Rounds: []float64{x, x, x}} }
		wr := &workloadResult{EndToEnd: map[string]value{}, WholePhase: map[string]value{}}
		for _, spec := range endToEnd {
			wr.EndToEnd[spec.Name] = v(1)
		}
		for _, spec := range wholePhase {
			wr.WholePhase[spec.Name] = v(1)
		}
		wr.EndToEnd["classify_mpps"], wr.WholePhase["classify_mpps"] = v(quiet), v(whole)
		data, err := json.Marshal(resultFile{Provenance: provenance{Seed: 1, Seconds: 10, Scale: 1, Rounds: plan},
			Workloads: map[string]*workloadResult{"zipf_churn": wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", timedPlan, 1.0, 1.0)
	for _, c := range []struct {
		name         string
		other        string
		bad          bool
		want, wantNo string
	}{
		{"whole phase slower", write("b.json", timedPlan, 1.0, 0.5), false, "REGRESSION (not gated)", "warning"},
		{"quiet slices slower", write("c.json", timedPlan, 0.5, 1.0), true, "REGRESSION\n", "REGRESSION (not gated)"},
		{"other round count", write("d.json", roundPlan{Full: 5}, 1.0, 1.0), false, "warning: seed, seconds, scale or rounds differ", "REGRESSION"},
	} {
		var buf bytes.Buffer
		bad, err := compareFiles(&buf, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(buf.String(), c.want) || strings.Contains(buf.String(), c.wantNo) {
			t.Errorf("%s: bad %v, want %v with %q and without %q:\n%s", c.name, bad, c.bad, c.want, c.wantNo, buf.String())
		}
	}
}

// TestOneP: tables_sharded holds GOMAXPROCS at 1 only while it runs,
// and on one P the ladder explains a packet by both sides' sums, not by
// the slower one.
func TestOneP(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	w, err := workloadByName("tables_sharded")
	if err != nil {
		t.Fatal(err)
	}
	restore := w.onProcs()
	during := runtime.GOMAXPROCS(0)
	restore()
	if after := runtime.GOMAXPROCS(0); during != 1 || after != before {
		t.Errorf("GOMAXPROCS %d before, %d during, %d after", before, during, after)
	}
	L := map[string]float64{"ingress.dispatch_ns_per_pkt": 10, "ingress.self_ns_per_pkt": 30}
	for serial, want := range map[bool]float64{false: 0.25, true: 0} {
		if _, got := reconcile(L, classifyResult{HitRate: 1}, 40, blockingPath{lookups: 1}, serial); got != want {
			t.Errorf("serial %v: unexplained share %v, want %v", serial, got, want)
		}
	}
}
