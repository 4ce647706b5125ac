package core

import (
	"fmt"
	"time"

	"catcam/internal/flightrec"
	tracepkg "catcam/internal/trace"
)

// This file wires the update tracer (internal/trace) and the flight
// recorder (internal/flightrec) into the device: update traces, inline
// lookup audits, and the background invariant sweep. Every hook is
// nil-safe and sampling-rate gated, so an unattached or unsampled
// device pays one pointer test per update step and one atomic load on
// the lookup path — the zero-allocation lookup guarantee is
// preserved (see lookup_test.go's AllocsPerRun coverage).

// AttachTracer starts sampling update requests into tt, the tracer the
// classify path's traces go to: a sampled insert, delete or modify
// becomes a trace of its datapath steps, each with its modelled cycles,
// ending in the epoch publish. Passing nil detaches.
func (d *Device) AttachTracer(tt *tracepkg.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = tt
}

// AttachAuditor starts reporting invariant check outcomes into aud:
// inline checks on sampled lookups and eviction-bounded inserts, plus
// the on-demand AuditSweep. Attaching an auditor also switches the
// device from fail-stop to fail-report on broken hardware guarantees —
// a non-one-hot report vector, which panics on an unattached device,
// is instead recorded as a violation and answered from the metadata
// cache. Passing nil detaches (and restores fail-stop).
func (d *Device) AttachAuditor(aud *flightrec.Auditor) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.aud = aud
	for _, st := range d.subs {
		st.aud = aud
	}
	d.publishLocked() // readers pick up the auditor with the next epoch
}

// AttachShadow starts mirroring rule-level updates into sh's reference
// classifier and re-classifying sampled lookups through it. Passing nil
// detaches.
func (d *Device) AttachShadow(sh *flightrec.Shadow) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shadow = sh
	d.publishLocked() // also stamps sh with the current epoch
}

// auditEvictionBound checks the paper's constant-time alteration claim
// on one completed entry insert: at most one existing entry moved
// (§VI). Only reallocating inserts generate a check; the
// chained-reallocation ablation violates it by construction.
func (d *Device) auditEvictionBound(res UpdateResult) {
	if d.aud == nil || res.Reallocated == 0 {
		return
	}
	d.aud.Check(flightrec.InvEvictionBound, res.Reallocated <= 1, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: res.Subtable, RuleID: -1,
			Detail: fmt.Sprintf("insert displaced %d entries, bound is 1", res.Reallocated),
		}
	})
}

// AuditSweep runs one background audit pass over the whole device and
// records it on the attached auditor: per-subtable priority-matrix
// consistency (InvPriorityMatrix) and bit-plane/scalar search parity
// (InvBitPlaneParity), then global interval disjointness, matrix
// encoding and locator consistency (InvIntervalDisjoint). The device
// lock is taken per subtable rather than across the sweep, so lookups
// and updates interleave with the audit. Returns the zero SweepInfo
// when no auditor is attached.
func (d *Device) AuditSweep() flightrec.SweepInfo {
	d.mu.Lock()
	aud := d.aud
	subs := d.subs // snapshot under mu; the slice header is stable after NewDevice
	d.mu.Unlock()
	if aud == nil {
		return flightrec.SweepInfo{}
	}
	start := time.Now()
	checks0, fails0 := aud.TotalChecks(), aud.TotalViolations()
	for _, st := range subs {
		d.mu.Lock()
		d.sweepSubtable(st)
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.sweepGlobal()
	d.mu.Unlock()
	info := flightrec.SweepInfo{
		Checks:     aud.TotalChecks() - checks0,
		Violations: aud.TotalViolations() - fails0,
		DurationMs: float64(time.Since(start).Microseconds()) / 1e3,
	}
	aud.RecordSweep(info)
	return info
}

// sweepSubtable audits one subtable under d.mu: the priority matrix
// agrees with the stored ranks, the bit-sliced match planes agree with
// the row-major words, and one canonical probe key returns the same
// match vector from both search kernels.
func (d *Device) sweepSubtable(st *Subtable) {
	if d.aud == nil || st.Empty() {
		return
	}
	err := st.CheckInvariant()
	d.aud.Check(flightrec.InvPriorityMatrix, err == nil, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: st.id, RuleID: -1, Detail: err.Error(),
		}
	})
	perr := st.match.AuditPlanes()
	d.aud.Check(flightrec.InvBitPlaneParity, perr == nil, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: st.id, RuleID: -1, Detail: perr.Error(),
		}
	})
	// Probe both kernels with the canonical matching key of the first
	// stored entry — a key guaranteed to exercise live planes.
	slot := st.store.ValidRef().First()
	if w, ok := st.match.EntryWord(slot); ok {
		serr := st.match.AuditSearchParity(w.MatchingKey())
		d.aud.Check(flightrec.InvBitPlaneParity, serr == nil, func() flightrec.Violation {
			return flightrec.Violation{
				Table: -1, Subtable: st.id, RuleID: -1, Detail: serr.Error(),
			}
		})
	}
}

// sweepGlobal audits the device-level scheduler state under d.mu.
func (d *Device) sweepGlobal() {
	if d.aud == nil {
		return
	}
	err := d.globalInvariantLocked()
	d.aud.Check(flightrec.InvIntervalDisjoint, err == nil, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: -1, RuleID: -1, Detail: err.Error(),
		}
	})
}
