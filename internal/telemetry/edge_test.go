package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Exporter edge cases: Prometheus label-value escaping, empty
// registries, and the exemplar surface.

// TestPrometheusLabelEscaping pins the text-format escaping rules for
// hostile label values: the 0.0.4 exposition format requires backslash,
// double-quote and newline escaped inside quoted label values, and
// nothing else. The registry renders labels with %q, whose escapes for
// those three bytes coincide with the Prometheus spec — this test is
// the tripwire if the rendering ever changes.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		value string
		want  string // expected rendered label value, inside the quotes
	}{
		{`plain`, `plain`},
		{`with"quote`, `with\"quote`},
		{`back\slash`, `back\\slash`},
		{"line\nbreak", `line\nbreak`},
		{"tab\tchar", `tab\tchar`}, // %q escapes more than the spec requires; that is allowed
		{`both\"`, `both\\\"`},
	}
	reg := NewRegistry()
	for i, c := range cases {
		reg.Counter("catcam_escape_test", "h", Labels{"v": c.value}).Add(uint64(i + 1))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, c := range cases {
		want := `catcam_escape_test{v="` + c.want + `"}`
		if !strings.Contains(text, want) {
			t.Errorf("rendered text missing %q\ngot:\n%s", want, text)
		}
	}
	// No raw (unescaped) newline may appear inside a label value: every
	// line must be a comment or a complete sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("broken sample line (label value leaked a newline?): %q", line)
		}
	}
}

func TestEmptyRegistryExport(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry rendered %q, want nothing", buf.String())
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("empty registry snapshot not empty: %+v", snap)
	}
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("empty registry JSON invalid: %v", err)
	}
	// A nil registry exports nothing and does not panic.
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	if got := h.Exemplars(); len(got) != 4 {
		t.Fatalf("exemplar slots = %d, want 4 (3 bounds + Inf)", len(got))
	}
	h.Observe(5) // plain observation leaves no exemplar
	for _, e := range h.Exemplars() {
		if e != nil {
			t.Fatal("plain Observe must not record an exemplar")
		}
	}
	h.ObserveExemplar(5, 0xabc)
	h.ObserveExemplar(7, 0xdef) // same bucket: most recent wins
	h.ObserveExemplar(5000, 0x123)
	ex := h.Exemplars()
	if ex[0] == nil || ex[0].Value != 7 || ex[0].TraceID != 0xdef {
		t.Fatalf("bucket 0 exemplar = %+v, want value 7 trace 0xdef", ex[0])
	}
	if ex[3] == nil || ex[3].TraceID != 0x123 {
		t.Fatalf("+Inf exemplar = %+v, want trace 0x123", ex[3])
	}
	if h.Count() != 4 { // ObserveExemplar also observes
		t.Fatalf("count = %d, want 4", h.Count())
	}
	// Snapshot rendering: bucket indices and hex trace IDs.
	snaps := h.exemplarSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("exemplar snapshots = %+v, want 2", snaps)
	}
	if snaps[0].Bucket != 0 || snaps[0].TraceID != "0000000000000def" {
		t.Fatalf("snapshot[0] = %+v", snaps[0])
	}
	if snaps[1].Bucket != 3 || snaps[1].Value != 5000 {
		t.Fatalf("snapshot[1] = %+v", snaps[1])
	}
	h.Reset()
	for _, e := range h.Exemplars() {
		if e != nil {
			t.Fatal("Reset must clear exemplars")
		}
	}
	// Nil safety.
	var nilH *Histogram
	nilH.ObserveExemplar(1, 1)
	if nilH.Exemplars() != nil || nilH.CountAbove(0) != 0 {
		t.Fatal("nil histogram exemplar accessors not zero")
	}
}

func TestExemplarsInRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("catcam_lookup_ns", "h", []uint64{100, 1000}, nil)
	h.ObserveExemplar(5000, 42)
	snap := reg.Snapshot()
	hs, ok := snap.Histograms["catcam_lookup_ns"]
	if !ok {
		t.Fatalf("histogram missing from snapshot: %v", snap.Histograms)
	}
	if len(hs.Exemplars) != 1 || hs.Exemplars[0].TraceID != "000000000000002a" {
		t.Fatalf("snapshot exemplars = %+v", hs.Exemplars)
	}
	// The exemplar survives a JSON round trip (the /metrics.json path).
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "000000000000002a") {
		t.Fatalf("JSON export lacks the exemplar trace id:\n%s", buf.String())
	}
}

func TestCountAbove(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{1, 10, 50, 100, 500, 5000} {
		h.Observe(v)
	}
	cases := []struct {
		bound uint64
		want  uint64
	}{
		{10, 4},    // 50, 100, 500, 5000
		{100, 2},   // 500, 5000
		{1000, 1},  // 5000
		{0, 6},     // everything sits in buckets above bound 0? bucket le=10 holds 1,10 — above 0 means all buckets
		{99999, 1}, // only +Inf bucket remains
	}
	for _, c := range cases {
		if got := h.CountAbove(c.bound); got != c.want {
			t.Errorf("CountAbove(%d) = %d, want %d", c.bound, got, c.want)
		}
	}
}
