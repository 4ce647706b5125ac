// Host-speed sweeps that no workload of the layered benchmark covers:
// goroutines over one device, and shards over one workload. The paper's
// tables and figures are regenerated by `go run ./cmd/catcam-bench`, and
// its claims are checked by the claims ledger in cmd/catcam-bench.
package catcam_test

import (
	"fmt"
	"sync"
	"testing"

	"catcam"
	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/rules"
)

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
