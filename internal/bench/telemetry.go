package bench

import (
	"fmt"
	"sort"
	"strings"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

// RunTelemetryChurn replays a workload's update trace and packet trace
// against a device instrumented with the given registry — the
// live-data path behind `catcam-bench -experiment telemetry` and the
// smoke test for the whole observability substrate. The initial bulk
// load counts as warmup: ResetStats clears both device statistics and
// telemetry before the measured churn, so reported quantiles describe
// steady state only. Lookups are interleaved with updates (one header drawn
// per update) to keep both the update and lookup counters moving the
// way live traffic would.
func RunTelemetryChurn(w *Workload, cfg core.Config, reg *telemetry.Registry) (*core.Device, error) {
	d := core.NewDevice(cfg)
	d.AttachTelemetry(reg, nil, nil)

	load := make([]rules.Rule, len(w.Ruleset.Rules))
	copy(load, w.Ruleset.Rules)
	sort.Slice(load, func(i, j int) bool { return load[i].Before(load[j]) })
	for _, r := range load {
		if _, err := d.InsertRule(r); err != nil {
			return nil, fmt.Errorf("bench: telemetry load %s: %w", w.Label(), err)
		}
	}
	// Warmup ends here: quantiles must describe churn, not bulk load.
	d.ResetStats()

	hdr := 0
	for _, u := range w.Trace {
		var err error
		if u.Op == classbench.OpInsert {
			_, err = d.InsertRule(u.Rule)
		} else {
			_, err = d.DeleteRule(u.Rule.ID)
		}
		if err != nil {
			// Full-device rejections are counted by the error series.
			continue
		}
		if len(w.Headers) > 0 {
			d.Lookup(w.Headers[hdr%len(w.Headers)])
			hdr++
		}
	}
	return d, nil
}

// FormatTelemetrySummary renders every histogram in the registry as an
// aligned quantile table (count, mean, p50/p99/p999, max) — the
// human-readable companion of the /metrics exposition.
func FormatTelemetrySummary(reg *telemetry.Registry) string {
	snap := reg.Snapshot()
	keys := make([]string, 0, len(snap.Histograms))
	for k := range snap.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-48s %10s %8s %8s %8s %8s %8s\n",
		"histogram", "count", "mean", "p50", "p99", "p999", "max")
	for _, k := range keys {
		h := snap.Histograms[k]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-48s %10d %8.2f %8.2f %8.2f %8.2f %8d\n",
			k, h.Count, h.Mean, h.P50, h.P99, h.P999, h.Max)
	}
	return b.String()
}
