package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"catcam/internal/telemetry"
)

// Invariant identifies one audited structural property of the CATCAM
// design. Each maps to a specific paper claim (see DESIGN.md §9).
type Invariant uint8

// Audited invariants.
const (
	// InvReportOneHot: the global report vector after priority
	// resolution selects exactly one subtable (§V: the column-NOR
	// priority decision yields a one-hot survivor).
	InvReportOneHot Invariant = iota
	// InvWinnerAgreement: the array-derived winner matches an
	// independent metadata-cache walk of the subtable intervals.
	InvWinnerAgreement
	// InvEvictionBound: one insert displaces at most one existing
	// entry (§VI: constant-time alteration, the 5-cycle class).
	InvEvictionBound
	// InvPriorityMatrix: every local P matrix is irreflexive and
	// antisymmetric-total over valid entries, and each bit agrees
	// with the stored ranks.
	InvPriorityMatrix
	// InvIntervalDisjoint: global subtable priority intervals are
	// pairwise disjoint and strictly ordered, and the global matrix
	// encodes exactly that order (§VI: interval-based allocation).
	InvIntervalDisjoint
	// InvBitPlaneParity: the bit-sliced match planes return the same
	// report vector as the scalar reference search over live entries
	// (PR 2's second search path stays equivalent).
	InvBitPlaneParity
	// InvShadowMatch: a sampled lookup re-classified by a software
	// reference classifier agrees with the device's decision.
	InvShadowMatch
	// InvTCAMOrder: a baseline TCAM algorithm's physical entry order
	// respects rule priority order (update package self-check).
	InvTCAMOrder
	// InvShardInterval: a sharded cluster's per-shard priority
	// intervals are pairwise disjoint, its bounds are ordered, and
	// every routed rule's priority lies inside its owner shard's
	// interval (internal/cluster's scale-out of the §VI interval
	// allocation, one level above subtables).
	InvShardInterval
	// InvArbiterWinner: the cluster arbiter's fan-out reduction (pick
	// the highest matched shard interval) agrees with an independent
	// rank comparison across the per-shard winners — the scale-out
	// analogue of InvWinnerAgreement.
	InvArbiterWinner
)

// invariantCount sizes the per-invariant counter tables.
const invariantCount = int(InvArbiterWinner) + 1

var invariantNames = [invariantCount]string{
	InvReportOneHot:     "report_one_hot",
	InvWinnerAgreement:  "winner_agreement",
	InvEvictionBound:    "eviction_bound",
	InvPriorityMatrix:   "priority_matrix",
	InvIntervalDisjoint: "interval_disjoint",
	InvBitPlaneParity:   "bit_plane_parity",
	InvShadowMatch:      "shadow_match",
	InvTCAMOrder:        "tcam_order",
	InvShardInterval:    "shard_interval",
	InvArbiterWinner:    "arbiter_winner",
}

// String names the invariant.
func (i Invariant) String() string {
	if int(i) < invariantCount {
		return invariantNames[i]
	}
	return fmt.Sprintf("Invariant(%d)", uint8(i))
}

// MarshalText renders the invariant symbolically in JSON reports.
func (i Invariant) MarshalText() ([]byte, error) { return []byte(i.String()), nil }

// UnmarshalText parses a symbolic invariant name.
func (i *Invariant) UnmarshalText(b []byte) error {
	for c := 0; c < invariantCount; c++ {
		if invariantNames[c] == string(b) {
			*i = Invariant(c)
			return nil
		}
	}
	return fmt.Errorf("flightrec: unknown invariant %q", b)
}

// Violation is one detected invariant breach.
type Violation struct {
	Seq       uint64    `json:"seq"`
	Invariant Invariant `json:"invariant"`
	Table     int       `json:"table"`
	Subtable  int       `json:"subtable"`
	RuleID    int       `json:"rule_id"`
	Detail    string    `json:"detail"`
	UnixNano  int64     `json:"unix_nano"`
}

// SweepInfo summarizes one background audit sweep.
type SweepInfo struct {
	Checks     uint64  `json:"checks"`
	Violations uint64  `json:"violations"`
	DurationMs float64 `json:"duration_ms"`
	UnixNano   int64   `json:"unix_nano"`
}

// Add folds o, the sweep of one part of a cluster or pipeline, into
// s: checks, violations and duration add up, and UnixNano keeps the
// later stamp.
func (s *SweepInfo) Add(o SweepInfo) {
	s.Checks += o.Checks
	s.Violations += o.Violations
	s.DurationMs += o.DurationMs
	s.UnixNano = max(s.UnixNano, o.UnixNano)
}

// Auditor collects invariant check outcomes: per-invariant check and
// violation counters (exported as catcam_audit_checks_total /
// catcam_audit_violations_total{invariant=...}) and a bounded ring of
// the most recent violations (served at /debug/audit). Pass accounting
// (CheckPass) is a single atomic add, so inline audits stay cheap; a
// violation allocates its ring record — violations are the exceptional
// path.
type Auditor struct {
	checks [invariantCount]*telemetry.Counter
	fails  [invariantCount]*telemetry.Counter
	table  int

	lookupSampler telemetry.Sampler

	// recent retains the most recent violations and stamps their Seq.
	recent *telemetry.Ring[Violation]

	mu         sync.Mutex
	sweeps     uint64
	lastSweep  SweepInfo
	sweepValid bool
}

// NewAuditor builds an auditor retaining up to keep recent violations.
// reg may be nil (the counters are then unregistered); labels (e.g.
// {"table": "0"}) scope the exported counter series, and a "table"
// label also tags violations. The ring is ignored (see
// telemetry.EventRing). Lookup sampling starts disabled; call
// SetLookupSampleEvery.
func NewAuditor(reg *telemetry.Registry, _ *telemetry.EventRing, keep int, labels telemetry.Labels) *Auditor {
	if keep <= 0 {
		keep = 64
	}
	a := &Auditor{table: -1,
		recent: telemetry.NewRing(keep, func(v *Violation) *uint64 { return &v.Seq })}
	if t, err := strconv.Atoi(labels["table"]); err == nil {
		a.table = t
	}
	for i := 0; i < invariantCount; i++ {
		if reg == nil {
			// Unregistered counters still back the Report/Checks API.
			a.checks[i] = &telemetry.Counter{}
			a.fails[i] = &telemetry.Counter{}
			continue
		}
		l := labels.Merged(telemetry.Labels{"invariant": Invariant(i).String()})
		a.checks[i] = reg.Counter("catcam_audit_checks_total",
			"invariant checks performed by the flight-recorder auditor", l)
		a.fails[i] = reg.Counter("catcam_audit_violations_total",
			"invariant violations detected by the flight-recorder auditor", l)
	}
	return a
}

// SetLookupSampleEvery audits one lookup per n (0 disables inline
// lookup audits, 1 audits every lookup). Nil-receiver safe.
func (a *Auditor) SetLookupSampleEvery(n uint64) {
	if a == nil {
		return
	}
	a.lookupSampler.SetEvery(n)
}

// LookupSampleEvery returns the inline lookup sampling period.
func (a *Auditor) LookupSampleEvery() uint64 {
	if a == nil {
		return 0
	}
	return a.lookupSampler.Every()
}

// SampleLookup reports whether this lookup should be audited inline.
// One atomic load when sampling is off; never allocates. Nil-receiver
// safe (false).
func (a *Auditor) SampleLookup() bool {
	return a != nil && a.lookupSampler.Hit()
}

// CheckPass records one passing check of an invariant. Nil-receiver
// safe; a single atomic add per counter.
func (a *Auditor) CheckPass(inv Invariant) {
	if a == nil {
		return
	}
	a.checks[inv].Inc()
}

// Fail records a failed check: both counters advance and the violation
// is retained (oldest dropped beyond the keep bound). Nil-receiver
// safe. The violation's Seq and UnixNano are assigned here; when the
// auditor carries a "table" label it overrides the violation's Table
// (reporters inside a device pass -1, not knowing their pipeline
// position).
func (a *Auditor) Fail(v Violation) {
	if a == nil {
		return
	}
	a.checks[v.Invariant].Inc()
	a.fails[v.Invariant].Inc()
	v.UnixNano = time.Now().UnixNano()
	if a.table >= 0 {
		v.Table = a.table
	}
	a.recent.Publish(&v)
}

// Check records one check outcome: pass when ok, otherwise the
// violation built by detail() (deferred so passing checks pay nothing
// for message formatting). Returns ok.
func (a *Auditor) Check(inv Invariant, ok bool, detail func() Violation) bool {
	if a == nil {
		return ok
	}
	if ok {
		a.CheckPass(inv)
		return true
	}
	v := detail()
	v.Invariant = inv
	a.Fail(v)
	return false
}

// RecordSweep notes a completed background sweep.
func (a *Auditor) RecordSweep(info SweepInfo) {
	if a == nil {
		return
	}
	info.UnixNano = time.Now().UnixNano()
	a.mu.Lock()
	a.sweeps++
	a.lastSweep = info
	a.sweepValid = true
	a.mu.Unlock()
}

// Checks returns the check count for one invariant.
func (a *Auditor) Checks(inv Invariant) uint64 {
	if a == nil {
		return 0
	}
	return a.checks[inv].Value()
}

// ViolationCount returns the violation count for one invariant.
func (a *Auditor) ViolationCount(inv Invariant) uint64 {
	if a == nil {
		return 0
	}
	return a.fails[inv].Value()
}

// TotalChecks returns the check count across all invariants: the sum
// of the per-invariant counters.
func (a *Auditor) TotalChecks() uint64 {
	var n uint64
	for i := 0; a != nil && i < invariantCount; i++ {
		n += a.checks[i].Value()
	}
	return n
}

// TotalViolations returns the violation count across all invariants.
func (a *Auditor) TotalViolations() uint64 {
	var n uint64
	for i := 0; a != nil && i < invariantCount; i++ {
		n += a.fails[i].Value()
	}
	return n
}

// Violations returns the retained violations oldest-first.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	out := []Violation{}
	a.recent.Each(func(v *Violation) { out = append(out, *v) })
	return out
}

// InvariantReport is the per-invariant line of an audit report.
type InvariantReport struct {
	Invariant  Invariant `json:"invariant"`
	Checks     uint64    `json:"checks"`
	Violations uint64    `json:"violations"`
}

// Report is the point-in-time audit summary served at /debug/audit.
type Report struct {
	TotalChecks       uint64            `json:"total_checks"`
	TotalViolations   uint64            `json:"total_violations"`
	LookupSampleEvery uint64            `json:"lookup_sample_every"`
	Invariants        []InvariantReport `json:"invariants"`
	Sweeps            uint64            `json:"sweeps"`
	LastSweep         *SweepInfo        `json:"last_sweep,omitempty"`
	Violations        []Violation       `json:"violations"`
}

// Report builds the current audit summary.
func (a *Auditor) Report() Report {
	if a == nil {
		return Report{}
	}
	rep := Report{
		TotalChecks:       a.TotalChecks(),
		TotalViolations:   a.TotalViolations(),
		LookupSampleEvery: a.LookupSampleEvery(),
		Violations:        a.Violations(),
	}
	for i := 0; i < invariantCount; i++ {
		rep.Invariants = append(rep.Invariants, InvariantReport{
			Invariant:  Invariant(i),
			Checks:     a.checks[i].Value(),
			Violations: a.fails[i].Value(),
		})
	}
	a.mu.Lock()
	rep.Sweeps = a.sweeps
	if a.sweepValid {
		ls := a.lastSweep
		rep.LastSweep = &ls
	}
	a.mu.Unlock()
	return rep
}

// Handler serves the audit report as JSON. ?n=K keeps only the K most
// recent violations.
func (a *Auditor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep := a.Report()
		if ns := req.URL.Query().Get("n"); ns != "" {
			if n, err := strconv.Atoi(ns); err == nil && n >= 0 && n < len(rep.Violations) {
				rep.Violations = rep.Violations[len(rep.Violations)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}
