package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// This file is the tail-latency attribution report (/debug/blame): it
// takes the slowest retained traces and decomposes their time by stage
// and by shard/subtable using *self* time — each span's duration minus
// the duration of the spans directly nested inside it — so a slow
// cluster walk whose time is really spent in one shard's kernel blames
// the kernel, not the dispatch wrapper. Every trace is recorded by one
// goroutine at a time and each span lies inside its caller's, so
// nesting is read from the time stamps alone; lanes are only
// timeline.go's rendering.

// StageBlame aggregates one stage across the examined traces.
type StageBlame struct {
	Stage       string  `json:"stage"`
	Count       uint64  `json:"count"`
	TotalNs     uint64  `json:"total_ns"`
	SelfNs      uint64  `json:"self_ns"`
	TotalCycles uint64  `json:"total_cycles"`
	ShareSelf   float64 `json:"share_self"` // SelfNs / sum of all stages' SelfNs
}

// ShardBlame aggregates one shard's kernel-lane self time.
type ShardBlame struct {
	Shard  int    `json:"shard"`
	Count  uint64 `json:"count"`
	SelfNs uint64 `json:"self_ns"`
}

// SubtableBlame aggregates sram_kernel spans per (shard, subtable).
type SubtableBlame struct {
	Shard    int    `json:"shard"`
	Subtable int    `json:"subtable"`
	Count    uint64 `json:"count"`
	TotalNs  uint64 `json:"total_ns"`
}

// TraceDigest summarizes one examined trace.
type TraceDigest struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	DurNs    uint64 `json:"dur_ns"`
	Spans    int    `json:"spans"`
	TopStage string `json:"top_stage"` // stage with the largest self time
	TopNs    uint64 `json:"top_stage_self_ns"`
}

// BlameReport is the /debug/blame payload.
type BlameReport struct {
	Retained  int             `json:"retained_traces"`
	Examined  int             `json:"examined_traces"`
	Slowest   int             `json:"slowest"`
	MinNs     uint64          `json:"min_ns"`
	Stages    []StageBlame    `json:"stages"`
	Shards    []ShardBlame    `json:"shards,omitempty"`
	Subtables []SubtableBlame `json:"subtables,omitempty"`
	Traces    []TraceDigest   `json:"traces"`
}

// selfTimes returns each span's self duration: its DurNs minus the
// DurNs of spans directly nested inside it. Nesting is duration
// containment — the same rule the timeline viewers apply.
func selfTimes(spans []Span) []uint64 {
	self := make([]uint64, len(spans))
	order := make([]int, len(spans))
	for i := range spans {
		self[i] = spans[i].DurNs
		order[i] = i
	}
	// In start order (ties: longer first so parents precede children),
	// subtract each span from its innermost enclosing span.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.StartNs != sb.StartNs {
			return sa.StartNs < sb.StartNs
		}
		return sa.DurNs > sb.DurNs
	})
	var stack []int // indices into spans, innermost last
	for _, i := range order {
		sp := spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if sp.StartNs >= top.StartNs && sp.End() <= top.End() {
				break // nested in top
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			if self[p] >= sp.DurNs {
				self[p] -= sp.DurNs
			} else {
				self[p] = 0
			}
		}
		stack = append(stack, i)
	}
	return self
}

// Blame builds the attribution report over the slowest retained
// traces: those with DurNs >= minNs, keeping at most slowest (<=0
// means all).
func (tt *Tracer) Blame(slowest int, minNs uint64) BlameReport {
	traces := tt.Snapshot()
	rep := BlameReport{Retained: len(traces), Slowest: slowest, MinNs: minNs}
	sort.Slice(traces, func(i, j int) bool { return traces[i].DurNs > traces[j].DurNs })
	kept := traces[:0]
	for _, t := range traces {
		if t.DurNs >= minNs {
			kept = append(kept, t)
		}
	}
	if slowest > 0 && len(kept) > slowest {
		kept = kept[:slowest]
	}
	rep.Examined = len(kept)

	stages := make([]StageBlame, StageCount)
	shards := map[int]*ShardBlame{}
	subtables := map[[2]int]*SubtableBlame{}
	for _, t := range kept {
		self := selfTimes(t.Spans)
		var topStage Stage
		var topNs uint64
		perStage := make([]uint64, StageCount)
		for i, sp := range t.Spans {
			st := &stages[sp.Stage]
			st.Count++
			st.TotalNs += sp.DurNs
			st.SelfNs += self[i]
			st.TotalCycles += sp.Cycles
			perStage[sp.Stage] += self[i]
			switch sp.Stage {
			case StageShardKernel, StageDeviceLookup:
				sh := sp.Shard
				sb, ok := shards[sh]
				if !ok {
					sb = &ShardBlame{Shard: sh}
					shards[sh] = sb
				}
				sb.Count++
				sb.SelfNs += self[i]
			case StageSRAMKernel:
				key := [2]int{sp.Shard, sp.Subtable}
				sb, ok := subtables[key]
				if !ok {
					sb = &SubtableBlame{Shard: sp.Shard, Subtable: sp.Subtable}
					subtables[key] = sb
				}
				sb.Count++
				sb.TotalNs += sp.DurNs
			}
		}
		for s, ns := range perStage {
			if ns > topNs {
				topNs, topStage = ns, Stage(s)
			}
		}
		rep.Traces = append(rep.Traces, TraceDigest{
			ID: TraceID(t.ID), Kind: t.Kind, DurNs: t.DurNs, Spans: len(t.Spans),
			TopStage: topStage.String(), TopNs: topNs,
		})
	}

	var totalSelf uint64
	for i := range stages {
		totalSelf += stages[i].SelfNs
	}
	for i := range stages {
		if stages[i].Count == 0 {
			continue
		}
		stages[i].Stage = Stage(i).String()
		if totalSelf > 0 {
			stages[i].ShareSelf = float64(stages[i].SelfNs) / float64(totalSelf)
		}
		rep.Stages = append(rep.Stages, stages[i])
	}
	sort.Slice(rep.Stages, func(i, j int) bool { return rep.Stages[i].SelfNs > rep.Stages[j].SelfNs })

	for _, sb := range shards {
		rep.Shards = append(rep.Shards, *sb)
	}
	sort.Slice(rep.Shards, func(i, j int) bool { return rep.Shards[i].SelfNs > rep.Shards[j].SelfNs })
	for _, sb := range subtables {
		rep.Subtables = append(rep.Subtables, *sb)
	}
	sort.Slice(rep.Subtables, func(i, j int) bool { return rep.Subtables[i].TotalNs > rep.Subtables[j].TotalNs })
	return rep
}

// BlameHandler serves /debug/blame. Query parameters: ?slowest=K keeps
// the K slowest retained traces (default 10, 0 = all); ?min_ns=N drops
// traces faster than N nanoseconds.
func (tt *Tracer) BlameHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		slowest := 10
		if s := req.URL.Query().Get("slowest"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("trace: bad slowest %q", s), http.StatusBadRequest)
				return
			}
			slowest = n
		}
		var minNs uint64
		if s := req.URL.Query().Get("min_ns"); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("trace: bad min_ns %q", s), http.StatusBadRequest)
				return
			}
			minNs = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tt.Blame(slowest, minNs))
	})
}
