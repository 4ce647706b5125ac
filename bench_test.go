// Benchmarks regenerating the paper's tables and figures, one bench per
// artifact, on scaled workloads so `go test -bench=.` completes in
// minutes. The full-scale sweep (ACL/FW/IPC × 1K/10K/20K, 1K updates)
// is produced by `go run ./cmd/catcam-bench`; EXPERIMENTS.md records
// the full-scale outputs against the paper.
package catcam_test

import (
	"fmt"
	"sync"
	"testing"

	"catcam"
	"catcam/internal/bench"
	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/metrics"
	"catcam/internal/rules"
)

// benchWorkload is shared across update-cost benchmarks.
func benchWorkload(b *testing.B) *bench.Workload {
	b.Helper()
	return bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 300, Headers: 500, FlatPorts: true, FreshPriorities: true,
	})
}

// BenchmarkFig1aDivergence regenerates the control/data-plane
// divergence simulation of Fig 1(a).
func BenchmarkFig1aDivergence(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r := bench.Fig1a()
		peak = r.Naive[len(r.Naive)-1].DivergenceMs
	}
	b.ReportMetric(peak, "peak-divergence-ms")
}

// BenchmarkFig1bNaiveInsert regenerates the naive-TCAM insertion-time
// curve of Fig 1(b).
func BenchmarkFig1bNaiveInsert(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := bench.Fig1b(10)
		worst = pts[len(pts)-1].WorstMs
	}
	b.ReportMetric(worst, "worst-insert-ms")
}

// BenchmarkTableIIIUpdateCost runs the Table III update-cost cell for
// every engine on ACL 1K (300 updates each).
func BenchmarkTableIIIUpdateCost(b *testing.B) {
	for _, name := range bench.AlgorithmNames() {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b)
			var avg float64
			for i := 0; i < b.N; i++ {
				row, err := bench.RunUpdateCost(w, name, 300)
				if err != nil {
					b.Fatal(err)
				}
				avg = row.AvgMoves
			}
			b.ReportMetric(avg, "moves/update")
		})
	}
	b.Run("CATCAM", func(b *testing.B) {
		w := benchWorkload(b)
		var avg float64
		for i := 0; i < b.N; i++ {
			row, _, err := bench.RunCATCAMUpdateCost(w, 300)
			if err != nil {
				b.Fatal(err)
			}
			avg = row.AvgMoves
		}
		b.ReportMetric(avg, "moves/update")
	})
}

// BenchmarkTableIVFirmware reports each engine's modelled firmware time
// per update (Table IV) on ACL 1K.
func BenchmarkTableIVFirmware(b *testing.B) {
	for _, name := range []string{"Naive", "FastRule", "RuleTris", "POT"} {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b)
			var avg float64
			for i := 0; i < b.N; i++ {
				row, err := bench.RunUpdateCost(w, name, 200)
				if err != nil {
					b.Fatal(err)
				}
				avg = row.AvgFirmwareNs
			}
			b.ReportMetric(avg, "firmware-ns/update")
		})
	}
	b.Run("CATCAM", func(b *testing.B) {
		w := benchWorkload(b)
		var avg float64
		for i := 0; i < b.N; i++ {
			row, _, err := bench.RunCATCAMUpdateCost(w, 200)
			if err != nil {
				b.Fatal(err)
			}
			avg = row.AvgFirmwareNs
		}
		b.ReportMetric(avg, "firmware-ns/update")
	})
}

// BenchmarkTableII recomputes the system metrics roll-up.
func BenchmarkTableII(b *testing.B) {
	var power float64
	for i := 0; i < b.N; i++ {
		m := metrics.ComputeSystem(catcam.Prototype(), 4.4)
		power = m.PowerW
	}
	b.ReportMetric(power, "power-W")
}

// BenchmarkFig15Lookup measures per-lookup cost of every engine on the
// Fig 15 comparison workload.
func BenchmarkFig15Lookup(b *testing.B) {
	w := bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 10, Headers: 300, FlatPorts: true,
	})
	rows, err := bench.Fig15(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(row.Engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = row
			}
			b.ReportMetric(row.MOPS, "model-MOPS")
			b.ReportMetric(row.AvgNs, "model-ns/lookup")
		})
	}
}

// BenchmarkFig16Energy regenerates the energy curves.
func BenchmarkFig16Energy(b *testing.B) {
	points := []int{1, 16, 64, 128, 256}
	var perBit float64
	for i := 0; i < b.N; i++ {
		m := metrics.MatchEnergyCurve(640, points)
		perBit = m[len(m)-1].PerBitFJ
		metrics.PriorityEnergyCurve(points)
	}
	b.ReportMetric(perBit, "fJ/bit-full-load")
}

// BenchmarkCPR measures the §VIII-A cycle breakdown on a churn trace.
func BenchmarkCPR(b *testing.B) {
	w := benchWorkload(b)
	var cprV float64
	for i := 0; i < b.N; i++ {
		_, cpr, err := bench.RunCATCAMUpdateCost(w, 300)
		if err != nil {
			b.Fatal(err)
		}
		cprV = cpr.OverallCPR
	}
	b.ReportMetric(cprV, "cycles/update")
}

// BenchmarkOccupancy runs the §VIII-B fill-to-failure experiment at
// prototype geometry.
func BenchmarkOccupancy(b *testing.B) {
	var occ, cpr float64
	for i := 0; i < b.N; i++ {
		o := bench.Occupancy(int64(i) + 1)
		occ, cpr = o.Occupancy, o.InsertCPR
	}
	b.ReportMetric(occ*100, "occupancy-%")
	b.ReportMetric(cpr, "cycles/insert")
}

// BenchmarkDeviceLookupParallel measures the lock-free classify path
// under goroutine scaling: g goroutines split b.N batched lookups over
// ONE device loaded with ACL-1K. Each goroutine loads the published
// snapshot and traverses it with pooled scratch, so on a multi-core
// host throughput should scale near-linearly until memory bandwidth
// binds (acceptance target: >= 3x at g=4 vs g=1 on a 4+ core machine).
// ns/op is per lookup. Single-core hosts will show flat (slightly
// degraded) scaling — the figure measures the machine, so compare only
// runs from the same CPU count and GOMAXPROCS. No workload of the
// layered benchmark sweeps goroutines over one device.
func BenchmarkDeviceLookupParallel(b *testing.B) {
	dev := catcam.New(catcam.Compact())
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := dev.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	headers := classbench.PacketTrace(rs, 256, 0.9, 6)
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var warm sync.WaitGroup
			for w := 0; w < g; w++ {
				warm.Add(1)
				go func() { // warm one pooled scratch per goroutine
					defer warm.Done()
					dev.LookupHeaderBatch(headers, nil)
				}()
			}
			warm.Wait()
			b.ReportAllocs()
			b.ResetTimer()
			batches := (b.N + len(headers) - 1) / len(headers)
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				share := batches / g
				if w < batches%g {
					share++
				}
				wg.Add(1)
				go func(share int) {
					defer wg.Done()
					var results []catcam.LookupResult
					for i := 0; i < share; i++ {
						results = dev.LookupHeaderBatch(headers, results[:0])
					}
				}(share)
			}
			wg.Wait()
		})
	}
}

// clusterBenchSetup loads BenchmarkDeviceLookupParallel's workload
// (same ruleset, same geometry per shard, same trace) into an n-shard
// cluster, so cluster ns/op is directly comparable to its goroutines=1
// figure.
func clusterBenchSetup(b *testing.B, shards int, batch int) (*cluster.Cluster, []rules.Header) {
	b.Helper()
	c := cluster.New(cluster.Config{Shards: shards, Device: catcam.Compact()})
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	for _, r := range rs.Rules {
		if _, err := c.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
	return c, classbench.PacketTrace(rs, batch, 0.9, 6)
}

// BenchmarkClusterShardScaling sweeps the shard count on the same
// workload; the stride loop advances b.N by the batch size, so ns/op is
// per lookup. shards=1 measures the cluster's own overhead (pooled
// round, arbiter reduce) over a bare device. The layered benchmark's tables_sharded workload fixes the
// shard count at 2, so the sweep lives here.
func BenchmarkClusterShardScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c, headers := clusterBenchSetup(b, n, 256)
			results := c.LookupHeaderBatch(headers, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(headers) {
				results = c.LookupHeaderBatch(headers, results[:0])
			}
		})
	}
}

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		col := bench.ColumnWriteAblation(catcam.Prototype())
		glob := bench.GlobalArbitrationAblation(256, 8)
		ratio = col.AltV/col.PaperV + glob.AltV/glob.PaperV
	}
	b.ReportMetric(ratio, "combined-savings-x")
}

// Sanity check used by the benchmarks' documentation: the workload
// generator emits what the benches assume.
func TestBenchWorkloadAssumptions(t *testing.T) {
	w := bench.NewWorkload(classbench.ACL, 1000, bench.WorkloadOptions{
		Updates: 300, Headers: 500, FlatPorts: true, FreshPriorities: true,
	})
	if len(w.Ruleset.Rules) != 1000 || len(w.Trace) != 300 || len(w.Headers) != 500 {
		t.Fatalf("unexpected workload shape: %d rules, %d updates, %d headers",
			len(w.Ruleset.Rules), len(w.Trace), len(w.Headers))
	}
	if w.Entries() != 1000 {
		t.Fatalf("flat ports should keep entries 1:1, got %d", w.Entries())
	}
	_ = fmt.Sprintf("%v", rules.TupleBits)
}
