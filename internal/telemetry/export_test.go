package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one exposition-format sample:
// metric_name{label="value",...} value
var promLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (.+)$`)

// parsePromText validates every line of a Prometheus text exposition
// and returns the samples as name{labels} -> value.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment: %q", n, line)
			}
			if prev, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s (was %s)", n, parts[2], prev)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: does not parse as a prometheus sample: %q", n, line)
		}
		name, labels, valueStr := m[1], m[2], m[5]
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil && valueStr != "+Inf" && valueStr != "NaN" {
			t.Fatalf("line %d: unparseable value %q: %v", n, valueStr, err)
		}
		key := name + labels
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", n, key)
		}
		samples[key] = v
	}
	return samples
}

func newExportRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("catcam_lookups_total", "total lookups", nil).Add(42)
	reg.Counter("catcam_classify_total", "classifications", Labels{"table": "0", "result": "hit"}).Add(7)
	reg.Counter("catcam_classify_total", "classifications", Labels{"table": "0", "result": "miss"}).Add(3)
	reg.Gauge("catcam_queue_depth", "queued requests", nil).Set(5)
	h := reg.Histogram("catcam_update_cycles", "cycles per update", []uint64{1, 3, 5, 10}, Labels{"op": "insert"})
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	h2 := reg.Histogram("catcam_update_cycles", "cycles per update", nil, Labels{"op": "delete"})
	h2.Observe(1)
	return reg
}

func TestPrometheusTextParses(t *testing.T) {
	reg := newExportRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, b.String())

	checks := []struct {
		key  string
		want float64
	}{
		{`catcam_lookups_total`, 42},
		{`catcam_classify_total{result="hit",table="0"}`, 7},
		{`catcam_classify_total{result="miss",table="0"}`, 3},
		{`catcam_queue_depth`, 5},
		{`catcam_update_cycles_bucket{le="1",op="insert"}`, 0},
		{`catcam_update_cycles_bucket{le="3",op="insert"}`, 90},
		{`catcam_update_cycles_bucket{le="5",op="insert"}`, 100},
		{`catcam_update_cycles_bucket{le="+Inf",op="insert"}`, 100},
		{`catcam_update_cycles_count{op="insert"}`, 100},
		{`catcam_update_cycles_sum{op="insert"}`, 320},
		{`catcam_update_cycles_count{op="delete"}`, 1},
	}
	for _, c := range checks {
		got, ok := samples[c.key]
		if !ok {
			t.Errorf("missing sample %s\nfull output:\n%s", c.key, b.String())
			continue
		}
		if got != c.want {
			t.Errorf("%s = %g, want %g", c.key, got, c.want)
		}
	}

	// p99 is exported as a derived gauge and sits in the (3,5] bucket.
	p99, ok := samples[`catcam_update_cycles_p99{op="insert"}`]
	if !ok {
		t.Fatalf("missing p99 sample\n%s", b.String())
	}
	if p99 <= 3 || p99 > 5 {
		t.Errorf("p99 = %g, want in (3,5]", p99)
	}
}

func TestPrometheusBucketsCumulative(t *testing.T) {
	reg := newExportRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// le buckets must be non-decreasing in bound order.
	var prev float64 = -1
	samples := parsePromText(t, b.String())
	for _, le := range []string{"1", "2", "3", "4", "5", "6", "8", "10", "+Inf"} {
		key := fmt.Sprintf(`catcam_update_cycles_bucket{le=%q,op="insert"}`, le)
		v, ok := samples[key]
		if !ok {
			continue // only bounds registered for this family exist
		}
		if v < prev {
			t.Errorf("bucket le=%s = %g < previous %g (not cumulative)", le, v, prev)
		}
		prev = v
	}
}

func TestJSONSnapshot(t *testing.T) {
	reg := newExportRegistry()
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if snap.Counters["catcam_lookups_total"] != 42 {
		t.Errorf("counter = %d, want 42", snap.Counters["catcam_lookups_total"])
	}
	hs, ok := snap.Histograms[`catcam_update_cycles{op="insert"}`]
	if !ok {
		t.Fatalf("missing histogram snapshot; have %v", snap.Histograms)
	}
	if hs.Count != 100 || hs.P99 <= 3 || hs.P99 > 5 {
		t.Errorf("histogram snapshot = %+v, want count 100, p99 in (3,5]", hs)
	}
}

func TestHTTPHandlers(t *testing.T) {
	reg := newExportRegistry()

	rec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "catcam_update_cycles_bucket") {
		t.Errorf("/metrics: code %d, body %q", rec.Code, rec.Body.String())
	}
	parsePromText(t, rec.Body.String())

	rec = httptest.NewRecorder()
	reg.JSONHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("/metrics.json: code %d, invalid JSON", rec.Code)
	}
}
