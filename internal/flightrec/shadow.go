package flightrec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"catcam/internal/rules"
	"catcam/internal/swclass"
	"catcam/internal/telemetry"
)

// Shadow is the differential checker: it mirrors every installed rule
// into a software reference classifier (internal/swclass) and
// re-classifies a sampled fraction of device lookups through it,
// reporting any divergence as an InvShadowMatch violation. Because the
// device's Rank order (priority, then larger rule ID) agrees exactly
// with rules.Before, the shadow demands exact (action, hit) agreement —
// not just plausible overlap.
//
// Mirror calls (OnInsert/OnDelete) must be made under the same
// serialization as the device update they mirror (core calls them while
// holding the device mutex), so the reference never observes a
// half-applied update. ObserveEpoch may race with them: the shadow's
// own mutex orders it against mirror calls.
type Shadow struct {
	ref   swclass.Classifier
	aud   *Auditor
	table int

	sampler  telemetry.Sampler
	mu       sync.Mutex
	desynced atomic.Bool
	reason   string

	// epoch is the device snapshot epoch the reference currently
	// mirrors. A lock-free reader passes the epoch of the snapshot it
	// classified against to ObserveEpoch; the comparison is skipped
	// unless the two agree, so a reader holding an older (or, mid-
	// update, newer) snapshot than the reference can never report a
	// false divergence. The device brackets every update with
	// BeginEpoch (sentinel: comparisons pause) and SetEpoch (the newly
	// published epoch: comparisons resume).
	epoch atomic.Uint64
}

// epochInFlight is the BeginEpoch sentinel: no published snapshot can
// carry it (epochs count up from zero), so every comparison skips.
const epochInFlight = ^uint64(0)

// NewShadow wraps a reference classifier for table (use -1 outside a
// flowtable), reporting mismatches into aud.
func NewShadow(ref swclass.Classifier, aud *Auditor, table int) *Shadow {
	return &Shadow{ref: ref, aud: aud, table: table}
}

// SetSampleEvery re-classifies one lookup per n through the reference
// (0 disables shadowing, 1 shadows every lookup). Nil-receiver safe.
func (s *Shadow) SetSampleEvery(n uint64) {
	if s == nil {
		return
	}
	s.sampler.SetEvery(n)
}

// SampleEvery returns the shadow sampling period.
func (s *Shadow) SampleEvery() uint64 {
	if s == nil {
		return 0
	}
	return s.sampler.Every()
}

// Sample reports whether this lookup should be shadow-checked. One
// atomic load when off; never allocates. Nil-receiver safe (false).
func (s *Shadow) Sample() bool {
	return s != nil && !s.desynced.Load() && s.sampler.Hit()
}

// BeginEpoch marks a device update in flight: the reference is about
// to diverge from every published snapshot, so epoch-checked
// comparisons pause until SetEpoch publishes the new epoch. Called
// under the device's update serialization, before any mirror call.
// Nil-receiver safe.
func (s *Shadow) BeginEpoch() {
	if s == nil {
		return
	}
	s.epoch.Store(epochInFlight)
}

// SetEpoch records that the reference now mirrors the device snapshot
// published as epoch e; epoch-checked comparisons against e resume.
// Called under the device's update serialization, after the snapshot
// store. Nil-receiver safe.
func (s *Shadow) SetEpoch(e uint64) {
	if s == nil {
		return
	}
	s.epoch.Store(e)
}

// ObserveEpoch re-classifies one header through the reference and
// compares it with the device's decision, reporting the outcome as an
// InvShadowMatch check; call it only for lookups where Sample()
// returned true. It compares only when the reference still mirrors
// exactly the snapshot epoch the device's answer came from, and
// silently skips otherwise (the race is benign — a concurrent update
// retired the reader's epoch, so comparing would measure staleness,
// not correctness). The epoch test happens under the shadow mutex,
// which also orders it against mirror calls. Nil-receiver safe.
func (s *Shadow) ObserveEpoch(h rules.Header, action int, ok bool, epoch uint64) {
	if s == nil || s.desynced.Load() {
		return
	}
	s.mu.Lock()
	if s.epoch.Load() != epoch {
		s.mu.Unlock()
		return
	}
	refAction, refOK, _ := s.ref.Lookup(h)
	s.mu.Unlock()
	match := refOK == ok && (!ok || refAction == action)
	s.aud.Check(InvShadowMatch, match, func() Violation {
		return Violation{
			Table: s.table, Subtable: -1, RuleID: -1,
			Detail: fmt.Sprintf("device (action=%d hit=%v) != %s reference (action=%d hit=%v)",
				action, ok, s.ref.Name(), refAction, refOK),
		}
	})
}

// OnInsert mirrors a successful device insert. A mirror failure
// desyncs the shadow rather than raising a violation: the reference
// broke, not the device. Nil-receiver safe.
func (s *Shadow) OnInsert(r rules.Rule) {
	if s == nil || s.desynced.Load() {
		return
	}
	s.mu.Lock()
	err := s.ref.Insert(r)
	s.mu.Unlock()
	if err != nil {
		s.Desync(fmt.Sprintf("mirror insert rule %d: %v", r.ID, err))
	}
}

// OnDelete mirrors a successful device delete. Nil-receiver safe.
func (s *Shadow) OnDelete(ruleID int) {
	if s == nil || s.desynced.Load() {
		return
	}
	s.mu.Lock()
	err := s.ref.Delete(ruleID)
	s.mu.Unlock()
	if err != nil {
		s.Desync(fmt.Sprintf("mirror delete rule %d: %v", ruleID, err))
	}
}

// Desync permanently disables the shadow for this device: some update
// bypassed the rule-level API (e.g. a raw word insert), so the
// reference no longer reflects the installed ruleset and any further
// comparison would be noise. Nil-receiver safe.
func (s *Shadow) Desync(reason string) {
	if s == nil || s.desynced.Swap(true) {
		return
	}
	s.mu.Lock()
	s.reason = reason
	s.mu.Unlock()
}

// Desynced reports whether the shadow has been disabled, and why.
func (s *Shadow) Desynced() (bool, string) {
	if s == nil || !s.desynced.Load() {
		return false, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return true, s.reason
}
