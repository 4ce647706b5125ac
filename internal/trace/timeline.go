package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// This file renders retained traces in the Chrome trace-event format
// (the JSON Array/Object format consumed by Perfetto and
// chrome://tracing): each span becomes one complete ("X") event with
// microsecond timestamps, each trace gets its own pid, and spans are
// placed on per-layer lanes (tid) so the viewers' duration-containment
// nesting reconstructs the call tree without explicit parent pointers.

// Lane (tid) layout inside one trace's pid. Shard-owned spans
// (shard_kernel and the device/sram spans recorded under it) share one
// lane per shard so they nest; everything a single lookup does on one
// shard is sequential, so containment is unambiguous.
const (
	laneIngress = 0 // ingress worker bursts (above the request layer)
	laneRequest = 1 // request, table_classify
	laneCluster = 3 // fanout_dispatch, arbiter_merge
	laneShard0  = 10
)

func lane(s Span) int {
	switch s.Stage {
	case StageIngress:
		return laneIngress
	case StageRequest, StageTableClassify:
		return laneRequest
	case StageFanoutDispatch, StageArbiterMerge:
		return laneCluster
	default: // shard_kernel, device_lookup, sram_kernel
		if s.Shard >= 0 {
			return laneShard0 + s.Shard
		}
		return laneShard0
	}
}

func laneName(tid int) string {
	switch tid {
	case laneIngress:
		return "ingress"
	case laneRequest:
		return "request"
	case laneCluster:
		return "cluster"
	default:
		return fmt.Sprintf("shard %d", tid-laneShard0)
	}
}

// traceEvent is one entry in the Chrome trace-event "traceEvents"
// array. Only the fields the viewers read are emitted.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// timelineFile is the top-level JSON Object format.
type timelineFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

const nsPerUs = 1000.0

// TimelineEvents converts traces to Chrome trace events. Each trace is
// one pid (named after its kind + ID); "M" metadata events name the
// process and lanes so Perfetto's track labels read as layers, not
// numbers.
func TimelineEvents(traces []*Trace) []traceEvent {
	var out []traceEvent
	for _, t := range traces {
		if t == nil {
			continue
		}
		out = append(out, traceEvent{
			Name: "process_name", Ph: "M", Pid: t.ID,
			Args: map[string]any{"name": fmt.Sprintf("%s trace %s", t.Kind, TraceID(t.ID))},
		})
		lanes := map[int]bool{}
		events := make([]traceEvent, 0, len(t.Spans)+1)
		events = append(events, traceEvent{
			Name: t.Kind, Ph: "X", Cat: "request",
			Ts: float64(t.StartNs) / nsPerUs, Dur: float64(t.DurNs) / nsPerUs,
			Pid: t.ID, Tid: laneRequest,
			Args: map[string]any{"trace_id": TraceID(t.ID), "spans": len(t.Spans), "dropped": t.Dropped},
		})
		lanes[laneRequest] = true
		for _, sp := range t.Spans {
			tid := lane(sp)
			lanes[tid] = true
			args := map[string]any{}
			if sp.Table >= 0 {
				args["table"] = sp.Table
			}
			if sp.Shard >= 0 {
				args["shard"] = sp.Shard
			}
			if sp.Subtable >= 0 {
				args["subtable"] = sp.Subtable
			}
			if sp.Key >= 0 {
				args["key"] = sp.Key
			}
			if sp.Cycles > 0 {
				args["cycles"] = sp.Cycles
			}
			events = append(events, traceEvent{
				Name: sp.Stage.String(), Ph: "X", Cat: "span",
				Ts: float64(sp.StartNs) / nsPerUs, Dur: float64(sp.DurNs) / nsPerUs,
				Pid: t.ID, Tid: tid, Args: args,
			})
		}
		tids := make([]int, 0, len(lanes))
		for tid := range lanes {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out = append(out, traceEvent{
				Name: "thread_name", Ph: "M", Pid: t.ID, Tid: tid,
				Args: map[string]any{"name": laneName(tid)},
			})
		}
		// Viewers sort stably, but emit time-ordered anyway so the raw
		// JSON reads as a timeline.
		sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
		out = append(out, events...)
	}
	return out
}

// WriteTimeline renders traces as a Perfetto-loadable JSON object.
func WriteTimeline(w interface{ Write([]byte) (int, error) }, traces []*Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	evs := TimelineEvents(traces)
	if evs == nil {
		evs = []traceEvent{}
	}
	return enc.Encode(timelineFile{TraceEvents: evs, DisplayUnit: "ns"})
}

// TimelineHandler serves /debug/timeline: all retained traces, or one
// selected with ?trace=<hex id>. The response loads directly in
// Perfetto (ui.perfetto.dev → "Open trace file") or chrome://tracing.
func (tt *Tracer) TimelineHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traces := tt.Snapshot()
		if idStr := req.URL.Query().Get("trace"); idStr != "" {
			id := ParseTraceID(idStr)
			t := tt.Get(id)
			if t == nil {
				http.Error(w, fmt.Sprintf("trace: id %q not retained", idStr), http.StatusNotFound)
				return
			}
			traces = []*Trace{t}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteTimeline(w, traces)
	})
}
