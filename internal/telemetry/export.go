package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// quantiles exported alongside every histogram, as derived gauge
// families "<name>_p50" / "<name>_p99" / "<name>_p999".
var exportQuantiles = []struct {
	suffix string
	q      float64
}{
	{"_p50", 0.50},
	{"_p99", 0.99},
	{"_p999", 0.999},
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE block per family,
// histogram series as cumulative `_bucket{le=...}` plus `_sum` and
// `_count`, and derived quantile gauges per histogram so p99 is
// readable straight off a /metrics scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	var lastFamily string
	// Quantile gauges are derived per-histogram families
	// ("<name>_p99"); series lines are buffered per suffix so each
	// derived family emits one TYPE line followed by all its series.
	quantileLines := make(map[string]*strings.Builder)
	flushQuantiles := func() {
		for _, eq := range exportQuantiles {
			if b, ok := quantileLines[eq.suffix]; ok {
				pf("# TYPE %s%s gauge\n%s", lastFamily, eq.suffix, b.String())
			}
		}
		quantileLines = make(map[string]*strings.Builder)
	}
	r.visit(func(f *family, s *series) {
		if f.name != lastFamily {
			flushQuantiles()
			if f.help != "" {
				pf("# HELP %s %s\n", f.name, f.help)
			}
			pf("# TYPE %s %s\n", f.name, f.typ)
			lastFamily = f.name
		}
		switch f.typ {
		case typeCounter:
			pf("%s%s %d\n", f.name, s.sig, s.count())
		case typeGauge:
			pf("%s%s %d\n", f.name, s.sig, s.level())
		case typeHistogram:
			bounds := s.h.Bounds()
			counts := s.h.BucketCounts()
			var cum uint64
			for i, b := range bounds {
				cum += counts[i]
				pf("%s_bucket%s %d\n", f.name, withLE(s.labels, strconv.FormatUint(b, 10)), cum)
			}
			cum += counts[len(counts)-1]
			pf("%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
			pf("%s_sum%s %d\n", f.name, s.sig, s.h.Sum())
			pf("%s_count%s %d\n", f.name, s.sig, cum)
			for _, eq := range exportQuantiles {
				b, ok := quantileLines[eq.suffix]
				if !ok {
					b = &strings.Builder{}
					quantileLines[eq.suffix] = b
				}
				fmt.Fprintf(b, "%s%s%s %s\n",
					f.name, eq.suffix, s.sig, formatFloat(s.h.Quantile(eq.q)))
			}
		}
	})
	flushQuantiles()
	return err
}

// withLE renders a label block with `le` appended — the histogram
// bucket signature.
func withLE(labels Labels, le string) string {
	merged := labels.Merged(Labels{"le": le})
	return merged.signature()
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramSnapshot is the JSON form of one histogram series.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P99     float64  `json:"p99"`
	P999    float64  `json:"p999"`
	Bounds  []uint64 `json:"bounds"`
	Buckets []uint64 `json:"buckets"` // non-cumulative; last is +Inf
	// Exemplars carry the most recent sampled observation per bucket
	// with its trace ID — the link from a tail bucket to its retained
	// span tree at /debug/timeline?trace=<id>.
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time JSON-friendly view of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every series keyed by "name{labels}".
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.visit(func(f *family, s *series) {
		key := f.name + s.sig
		switch f.typ {
		case typeCounter:
			snap.Counters[key] = s.count()
		case typeGauge:
			snap.Gauges[key] = s.level()
		case typeHistogram:
			snap.Histograms[key] = HistogramSnapshot{
				Count:     s.h.Count(),
				Sum:       s.h.Sum(),
				Min:       s.h.Min(),
				Max:       s.h.Max(),
				Mean:      s.h.Mean(),
				P50:       s.h.Quantile(0.50),
				P99:       s.h.Quantile(0.99),
				P999:      s.h.Quantile(0.999),
				Bounds:    s.h.Bounds(),
				Buckets:   s.h.BucketCounts(),
				Exemplars: s.h.exemplarSnapshots(),
			}
		}
	})
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// MetricsHandler serves the Prometheus text format.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the JSON snapshot.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
