package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"
)

// getUpdates serves url from tt's /debug/trace handler and returns the
// body.
func getUpdates(t *testing.T, tt *Tracer, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	tt.UpdateHandler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", url, rec.Code)
	}
	return rec.Body.Bytes()
}

// recordUpdates publishes n one-step update traces on tt, inserts and
// deletes alternating, with a classify trace between each pair.
func recordUpdates(tt *Tracer, n int) {
	for i := 0; i < n; i++ {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		tr := tt.StartUpdate(op, i, 3, -1)
		tr.Step(StageEntryWrite, 1, i, 1)
		tr.Step(StagePublish, -1, -1, 0)
		tt.FinishUpdate(tr, 1, nil)
		tt.Finish(tt.Start("classify"))
	}
}

func TestUpdateHandlerFilters(t *testing.T) {
	tt := NewTracer(16)
	tt.SetSampleEvery(1)
	recordUpdates(tt, 5)
	var body struct {
		Total  uint64 `json:"total_sampled"`
		Traces []struct {
			Seq    uint64 `json:"seq"`
			Op     string `json:"op"`
			RuleID int    `json:"rule_id"`
		} `json:"traces"`
	}
	get := func(url string) {
		t.Helper()
		body.Traces = nil
		if err := json.Unmarshal(getUpdates(t, tt, url), &body); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	get("/debug/trace")
	if body.Total != 10 || len(body.Traces) != 5 {
		t.Fatalf("unfiltered: total %d, %d traces; want 10 (lookups count) and 5 (updates only)", body.Total, len(body.Traces))
	}
	for _, tr := range body.Traces {
		if got := tt.Get(tr.Seq); got == nil || got.RuleID != tr.RuleID {
			t.Fatalf("seq %d does not name the trace of rule %d", tr.Seq, tr.RuleID)
		}
	}
	get("/debug/trace?n=2")
	if len(body.Traces) != 2 || body.Traces[1].RuleID != 4 {
		t.Fatalf("n=2 filter wrong: %+v", body.Traces)
	}
	get("/debug/trace?op=delete")
	if len(body.Traces) != 2 {
		t.Fatalf("op=delete kept %d traces, want 2", len(body.Traces))
	}
	for _, tr := range body.Traces {
		if tr.Op != "delete" {
			t.Fatalf("op filter leaked %q", tr.Op)
		}
	}
	get("/debug/trace?op=insert,delete&n=1")
	if len(body.Traces) != 1 {
		t.Fatalf("combined filter kept %d", len(body.Traces))
	}
}

// Schema of /debug/trace as the flight recorder served it.
type (
	schemaStep struct {
		Kind     string `json:"kind"`
		Entry    int    `json:"entry"`
		Subtable int    `json:"subtable"`
		Slot     int    `json:"slot"`
		Cycles   uint64 `json:"cycles"`
	}
	schemaTrace struct {
		Seq    uint64       `json:"seq"`
		Op     string       `json:"op"`
		Table  int          `json:"table"`
		RuleID int          `json:"rule_id"`
		Steps  []schemaStep `json:"steps"`
		Cycles uint64       `json:"cycles"`
		Err    string       `json:"err,omitempty"`
	}
	schemaBody struct {
		Total       uint64        `json:"total_sampled"`
		Capacity    int           `json:"capacity"`
		SampleEvery uint64        `json:"sample_every"`
		Traces      []schemaTrace `json:"traces"`
	}
)

// TestUpdateHandlerSchema pins /debug/trace's JSON schema: the body
// decodes into the flight recorder's structs with unknown fields
// disallowed, and every key those structs name is present.
func TestUpdateHandlerSchema(t *testing.T) {
	tt := NewTracer(16)
	tt.SetSampleEvery(1)
	recordUpdates(tt, 2)
	raw := getUpdates(t, tt, "/debug/trace")

	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var body schemaBody
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("/debug/trace no longer decodes into its schema: %v\n%s", err, raw)
	}
	if body.Capacity != 16 || body.SampleEvery != 1 || len(body.Traces) != 2 {
		t.Fatalf("body %+v", body)
	}
	tr := body.Traces[0]
	if tr.Op != "insert" || tr.Table != 3 || tr.RuleID != 0 || tr.Cycles != 1 || len(tr.Steps) != 2 {
		t.Fatalf("trace %+v", tr)
	}
	if s := tr.Steps[0]; s != (schemaStep{Kind: "entry_write", Entry: 0, Subtable: 1, Slot: 0, Cycles: 1}) {
		t.Fatalf("step %+v", s)
	}

	var top map[string]json.RawMessage
	var traces, steps []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["traces"], &traces); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(traces[0]["steps"], &steps); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		obj  map[string]json.RawMessage
		want []string
	}{
		{top, []string{"capacity", "sample_every", "total_sampled", "traces"}},
		{traces[0], []string{"cycles", "op", "rule_id", "seq", "steps", "table"}},
		{steps[0], []string{"cycles", "entry", "kind", "slot", "subtable"}},
	} {
		var got []string
		for k := range c.obj {
			got = append(got, k)
		}
		sort.Strings(got)
		if len(got) != len(c.want) {
			t.Fatalf("keys %v, want %v", got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("keys %v, want %v", got, c.want)
			}
		}
	}
}
