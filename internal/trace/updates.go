package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// This file serves /debug/trace: the tracer's update traces as causal
// step lists — per trace its operation, table, rule, steps and total
// modelled cycles, per step its stage, entry ordinal, subtable, slot and
// cycles. The same traces appear with host time on /debug/timeline.

// updateStep is one step of an update trace as /debug/trace renders it.
type updateStep struct {
	Kind     Stage  `json:"kind"`
	Entry    int    `json:"entry"`
	Subtable int    `json:"subtable"`
	Slot     int    `json:"slot"`
	Cycles   uint64 `json:"cycles"`
}

// updateTrace is one update trace as /debug/trace renders it. Seq is
// the trace ID, the number /debug/timeline?trace= takes in hex.
type updateTrace struct {
	Seq    uint64       `json:"seq"`
	Op     string       `json:"op"`
	Table  int          `json:"table"`
	RuleID int          `json:"rule_id"`
	Steps  []updateStep `json:"steps"`
	Cycles uint64       `json:"cycles"`
	Err    string       `json:"err,omitempty"`
}

// UpdateHandler serves the retained update traces as JSON, oldest
// first. Query parameters: ?n=K keeps only the K most recent traces;
// ?op=insert (comma-separable) filters by operation. total_sampled
// counts every trace the tracer published, lookups included.
func (tt *Tracer) UpdateHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var ops map[string]bool
		if s := q.Get("op"); s != "" {
			ops = map[string]bool{}
			for _, op := range strings.Split(s, ",") {
				ops[op] = true
			}
		}
		var traces []updateTrace
		for _, t := range tt.Snapshot() {
			if !t.update || ops != nil && !ops[t.Kind] {
				continue
			}
			ut := updateTrace{Seq: t.ID, Op: t.Kind, Table: t.table, RuleID: t.RuleID,
				Cycles: t.Cycles, Err: t.Err}
			for _, sp := range t.Spans {
				ut.Steps = append(ut.Steps, updateStep{Kind: sp.Stage, Entry: sp.Key,
					Subtable: sp.Subtable, Slot: sp.Slot, Cycles: sp.Cycles})
			}
			traces = append(traces, ut)
		}
		if n, err := strconv.Atoi(q.Get("n")); err == nil && n >= 0 && n < len(traces) {
			traces = traces[len(traces)-n:]
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total       uint64        `json:"total_sampled"`
			Capacity    int           `json:"capacity"`
			SampleEvery uint64        `json:"sample_every"`
			Traces      []updateTrace `json:"traces"`
		}{tt.Total(), tt.Cap(), tt.SampleEvery(), traces})
	})
}
