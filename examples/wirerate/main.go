// Wire-rate ingress: the full packet front end over a sharded cluster.
// A Zipf traffic generator feeds per-worker SPSC rings; each worker
// drains bursts through its private flow cache and sends only the
// misses to the cluster's ternary lookup, while rules churn underneath
// — the flow cache invalidating by epoch, never serving a stale
// decision past the burst that raced the update. Prints the resulting
// wire rate, cache effectiveness, and tail latency.
package main

import (
	"fmt"
	"log"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/telemetry"
)

func main() {
	// A 4-shard interval-partitioned cluster holding a 2000-rule ACL.
	cl := cluster.New(cluster.Config{
		Shards: 4,
		Device: core.Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160},
	})
	defer cl.Close()
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 2000, Seed: 42})
	for _, r := range rs.Rules {
		if _, err := cl.InsertRule(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cluster: 4 shards, %d rules installed, epoch %d\n", len(rs.Rules), cl.Epoch())

	// The ingress engine: 2 run-to-completion workers, 16K-decision
	// flow caches, drop-based backpressure.
	reg := telemetry.NewRegistry()
	eng := ingress.New(ingress.Config{
		Workers:       2,
		RingSize:      4096,
		Burst:         64,
		FlowCacheSize: 16384,
		Backend:       ingress.NewLookupBackend(cl),
	})
	eng.AttachTelemetry(reg, nil)
	eng.Start()

	// Zipf traffic: 100K distinct flows, the heavy hitters dominating.
	gen := ingress.NewGenerator(rs, ingress.GenConfig{Flows: 100_000, ZipfS: 1.2, Seed: 7})
	fmt.Printf("traffic: %d-flow universe, zipf-s 1.2\n", gen.NumFlows())

	// Churn rules from a second goroutine while packets flow: every
	// delete/insert advances the cluster epoch and invalidates both
	// workers' caches wholesale.
	done := make(chan struct{})
	churned := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				churned <- n
				return
			default:
			}
			r := rs.Rules[n%200]
			if _, err := cl.DeleteRule(r.ID); err != nil {
				log.Fatal(err)
			}
			r.Action += 10000
			if _, err := cl.InsertRule(r); err != nil {
				log.Fatal(err)
			}
			n++
			time.Sleep(25 * time.Millisecond)
		}
	}()

	// Pump unthrottled for two seconds.
	start := time.Now()
	go eng.RunSource(gen, 0, done)
	time.Sleep(2 * time.Second)
	close(done)
	elapsed := time.Since(start)
	updates := <-churned
	stats := eng.Stop()

	mpps := float64(stats.Packets) / elapsed.Seconds() / 1e6
	fmt.Printf("\nran %.2fs with %d rule updates mid-stream\n", elapsed.Seconds(), updates)
	fmt.Printf("packets   %10d  (%.2f Mpps across %d workers, %.2f Mpps/core)\n",
		stats.Packets, mpps, eng.Workers(), mpps/float64(eng.Workers()))
	fmt.Printf("cache     %10.1f%% hit rate  (%d hits, %d misses to the ternary array)\n",
		100*stats.HitRate(), stats.CacheHits, stats.CacheMisses)
	fmt.Printf("drops     %10d  (ring backpressure)\n", stats.Drops)
	fmt.Printf("p999      %10.0f ns per burst\n", eng.BurstLatency().Quantile(0.999))
	for i, w := range stats.Workers {
		fmt.Printf("worker %d: %d packets, %d bursts, %.1f%% hits\n",
			i, w.Packets, w.Bursts, 100*float64(w.CacheHits)/float64(max(w.Packets, 1)))
	}
}
