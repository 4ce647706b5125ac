// Package flightrec is CATCAM's flight recorder: the observability
// layer that continuously *proves* the paper's structural claims in
// flight, rather than merely counting them the way internal/telemetry
// does. It provides three cooperating instruments, all sampling-rate
// gated so the zero-allocation classify fast path stays untouched when
// sampling is off:
//
//   - Recorder: per-update causal traces. A sampled Insert/Delete/
//     Modify records the span sequence the hardware walks — subtable
//     selection, empty-slot pick, match-row + P-row/column writes,
//     global-matrix update, the optional eviction hop, max-priority
//     rederivation — each step carrying its modeled cycle cost, so the
//     per-step cycles of one request sum to its §VIII-A cycle class.
//     Traces land in a bounded lock-free ring served at /debug/trace.
//
//   - Auditor: online invariant auditing. Cheap inline checks on
//     sampled lookups (one-hot report vector, winner agreement with the
//     metadata cache, eviction-chain length ≤ 1) plus background sweeps
//     (priority-matrix antisymmetry/irreflexivity, global interval
//     disjointness, bit-plane ≡ scalar match-array consistency) feed
//     per-invariant check/violation counters, violation events on the
//     shared telemetry ring, and a /debug/audit report.
//
//   - Shadow: differential checking. A sampled fraction of lookups is
//     re-classified through a software reference classifier
//     (internal/swclass) mirroring the installed ruleset; divergence is
//     flagged as a shadow_match violation.
//
// This mirrors the self-checking update pipelines RAM/FPGA-CAM designs
// rely on (Nguyen et al., "An Efficient I/O Architecture for RAM-based
// CAM on FPGA"): the datapath carries its own online proof obligations.
package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"catcam/internal/telemetry"
)

// StepKind tags one causal step of an update trace.
type StepKind uint8

// Step kinds, in the order the update datapath walks them.
const (
	// StepSubtableSelect: the interval scheduler located the target
	// subtable in the metadata cache (firmware-free, 0 cycles).
	StepSubtableSelect StepKind = iota
	// StepFreshSubtable: a free subtable was activated for the rule.
	StepFreshSubtable
	// StepGlobalUpdate: the global priority matrix row + column for a
	// subtable were rewritten (overlapped with the local write, §VIII-A).
	StepGlobalUpdate
	// StepEntryWrite: match-matrix row write in parallel with the
	// P-row + dual-voltage P-column write — the 3-cycle insert core.
	StepEntryWrite
	// StepEvictLocate: the all-true priority decision located the
	// subtable maximum to evict (1 cycle).
	StepEvictLocate
	// StepEvictionHop: the evicted maximum moved into the successor
	// (or a fresh) subtable — the +1 cycle of the 5-cycle class.
	StepEvictionHop
	// StepMaxRederive: the subtable max was re-derived after an
	// eviction or max deletion (overlapped, 0 extra cycles).
	StepMaxRederive
	// StepDelete: one entry invalidation (1 cycle).
	StepDelete
)

var stepNames = [...]string{
	StepSubtableSelect: "subtable_select",
	StepFreshSubtable:  "fresh_subtable",
	StepGlobalUpdate:   "global_update",
	StepEntryWrite:     "entry_write",
	StepEvictLocate:    "evict_locate",
	StepEvictionHop:    "eviction_hop",
	StepMaxRederive:    "max_rederive",
	StepDelete:         "delete",
}

// String names the step kind.
func (k StepKind) String() string {
	if int(k) < len(stepNames) {
		return stepNames[k]
	}
	return fmt.Sprintf("StepKind(%d)", uint8(k))
}

// MarshalText renders the kind symbolically in JSON traces.
func (k StepKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Step is one node of a causal update trace.
type Step struct {
	Kind StepKind `json:"kind"`
	// Entry is the range-expansion entry ordinal this step belongs to
	// (0 for single-entry updates), grouping the flat step list back
	// into the per-entry span tree.
	Entry    int    `json:"entry"`
	Subtable int    `json:"subtable"`
	Slot     int    `json:"slot"`
	Cycles   uint64 `json:"cycles"`
}

// Trace is one sampled update's causal record. Steps appear in causal
// order; for updates their Cycles sum to the request's modeled cycle
// cost (the paper's 3/5/1 classes), except when an error rolled the
// request back or the chained-reallocation ablation cascaded.
type Trace struct {
	Seq    uint64 `json:"seq"`
	Op     string `json:"op"`
	Table  int    `json:"table"`
	RuleID int    `json:"rule_id"`
	Steps  []Step `json:"steps"`
	Cycles uint64 `json:"cycles"`
	Err    string `json:"err,omitempty"`

	entry int // current expansion-entry ordinal steps are tagged with
}

// Step appends one causal step. Nil-receiver safe, so instrumented
// code guards with a single pointer test.
func (t *Trace) Step(kind StepKind, subtable, slot int, cycles uint64) {
	if t == nil {
		return
	}
	t.Steps = append(t.Steps, Step{
		Kind: kind, Entry: t.entry, Subtable: subtable, Slot: slot, Cycles: cycles,
	})
}

// NextEntry advances the expansion-entry ordinal subsequent steps are
// tagged with (one rule inserts several range-expansion entries; each
// gets its own span group). Nil-receiver safe.
func (t *Trace) NextEntry(ordinal int) {
	if t == nil {
		return
	}
	t.entry = ordinal
}

// StepCycles sums the modeled cycles over all steps.
func (t *Trace) StepCycles() uint64 {
	var total uint64
	for _, s := range t.Steps {
		total += s.Cycles
	}
	return total
}

// Recorder samples update requests and retains their causal traces in
// a bounded lock-free ring (oldest overwritten).
type Recorder struct {
	sampler telemetry.Sampler
	ring    *telemetry.Ring[Trace]
}

// NewRecorder builds a recorder retaining up to capacity traces.
// Sampling starts disabled; call SetSampleEvery.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{ring: telemetry.NewRing(capacity, func(t *Trace) *uint64 { return &t.Seq })}
}

// SetSampleEvery samples one update trace per n update requests
// (0 disables tracing, 1 traces every update).
func (r *Recorder) SetSampleEvery(n uint64) {
	if r == nil {
		return
	}
	r.sampler.SetEvery(n)
}

// Start begins a trace for one update request, or returns nil when the
// request is not sampled. Nil-receiver safe.
func (r *Recorder) Start(op string, table, ruleID int) *Trace {
	if r == nil || !r.sampler.Hit() {
		return nil
	}
	return &Trace{Op: op, Table: table, RuleID: ruleID}
}

// Finish publishes a completed trace with its total modeled cycle cost
// and outcome. Nil-safe on both receiver and trace.
func (r *Recorder) Finish(t *Trace, cycles uint64, err error) {
	if r == nil || t == nil {
		return
	}
	t.Cycles = cycles
	if err != nil {
		t.Err = err.Error()
	}
	r.ring.Publish(t)
}

// Total returns the number of traces ever published.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Total()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.Cap()
}

// Snapshot returns copies of the retained traces oldest-first (see
// telemetry.Ring.Each for what concurrent publishers can trim).
func (r *Recorder) Snapshot() []Trace {
	if r.Total() == 0 {
		return nil // nothing ever recorded: the handler serves null, not []
	}
	out := []Trace{}
	r.ring.Each(func(t *Trace) { out = append(out, *t) })
	return out
}

// Handler serves the retained traces as JSON (oldest-first). Query
// parameters: ?n=K keeps only the K most recent traces; ?op=insert
// (comma-separable) filters by operation.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traces := r.Snapshot()
		if ops := req.URL.Query().Get("op"); ops != "" {
			want := splitSet(ops)
			kept := traces[:0]
			for _, t := range traces {
				if want[t.Op] {
					kept = append(kept, t)
				}
			}
			traces = kept
		}
		if ns := req.URL.Query().Get("n"); ns != "" {
			if n, err := strconv.Atoi(ns); err == nil && n >= 0 && n < len(traces) {
				traces = traces[len(traces)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total       uint64  `json:"total_sampled"`
			Capacity    int     `json:"capacity"`
			SampleEvery uint64  `json:"sample_every"`
			Traces      []Trace `json:"traces"`
		}{r.Total(), r.Cap(), r.sampler.Every(), traces})
	})
}

// splitSet parses a comma-separated filter value into a lookup set.
func splitSet(s string) map[string]bool {
	out := make(map[string]bool)
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out[s[start:i]] = true
			}
			start = i + 1
		}
	}
	return out
}
