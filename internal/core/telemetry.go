package core

import (
	"strconv"

	"catcam/internal/telemetry"
)

// deviceTelemetry holds the metric instances a device reports into
// when telemetry is attached. All fields may be nil-backed no-ops;
// every hot-path hook is a single nil test plus a few atomics.
type deviceTelemetry struct {
	// updateCycles and updateErrors are the per-request series, indexed
	// by the request's event kind (EvInsert, EvDelete, EvModify), whose
	// name is the op label.
	updateCycles [telemetry.EvModify + 1]*telemetry.Histogram
	updateErrors [telemetry.EvModify + 1]*telemetry.Counter
	lookups      *telemetry.Counter
	reallocs     *telemetry.Counter
	fresh        *telemetry.Counter
	chainDepth   *telemetry.Histogram
	activeSubs   *telemetry.Gauge
	entries      *telemetry.Gauge
	epochG       *telemetry.Gauge
	ring         *telemetry.EventRing
	table        int // flowtable ID carried on events; -1 standalone
}

// AttachTelemetry registers this device's metrics on reg and starts
// reporting into them. The optional ring receives structured update
// events (insert/delete/modify, reallocations, fresh-subtable
// assignments, eviction chains). Labels are attached to every series —
// a flowtable passes {"table": "<id>"} so per-table series stay
// distinct on a shared registry; when a numeric "table" label is
// present it is also carried on ring events.
//
// Attaching replaces any previous attachment. Passing a nil registry
// detaches.
func (d *Device) AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		d.tel = nil
		d.publishLocked()
		return
	}
	table := -1
	if s, ok := labels["table"]; ok {
		if n, err := strconv.Atoi(s); err == nil {
			table = n
		}
	}
	t := &deviceTelemetry{
		lookups:  reg.Counter("catcam_lookups_total", "lookups performed", labels),
		reallocs: reg.Counter("catcam_reallocations_total", "rules evicted between subtables", labels),
		fresh:    reg.Counter("catcam_fresh_subtables_total", "subtables assigned at runtime", labels),
		chainDepth: reg.Histogram("catcam_eviction_chain_depth",
			"rules moved per reallocating insert (1 in the paper's design; >1 only under the chained-reallocation ablation)",
			telemetry.DefaultDepthBuckets, labels),
		activeSubs: reg.Gauge("catcam_active_subtables", "subtables currently in use", labels),
		entries:    reg.Gauge("catcam_entries", "stored entries post range expansion", labels),
		epochG: reg.Gauge("catcam_epoch",
			"published snapshot epoch (per shard in cluster mode)", labels),
		ring:  ring,
		table: table,
	}
	for kind := range t.updateCycles {
		op := labels.Merged(telemetry.Labels{"op": telemetry.EventKind(kind).String()})
		t.updateCycles[kind] = reg.Histogram("catcam_update_cycles", "cycle cost per update request",
			telemetry.DefaultCycleBuckets, op)
		t.updateErrors[kind] = reg.Counter("catcam_update_errors_total",
			"updates rejected (device full / rule not present)", op)
	}
	d.tel = t
	t.syncGauges(d)
	d.publishLocked() // readers pick up the telemetry with the next epoch
}

// event forwards an event to the ring with the device's table ID.
func (t *deviceTelemetry) event(e telemetry.Event) {
	if t == nil || t.ring == nil {
		return
	}
	e.Table = t.table
	t.ring.Emit(e)
}

// syncGauges publishes the device's instantaneous occupancy state.
func (t *deviceTelemetry) syncGauges(d *Device) {
	if t == nil {
		return
	}
	t.activeSubs.Set(int64(len(d.order)))
	t.entries.Set(int64(d.entries))
	if s := d.snap.Load(); s != nil {
		t.epochG.Set(int64(s.epoch))
	}
}

// observeOp records a completed (or rejected) top-level update.
func (d *Device) observeOp(kind telemetry.EventKind, ruleID int, res UpdateResult, err error) {
	t := d.tel
	if t == nil {
		return
	}
	if err != nil {
		t.updateErrors[kind].Inc()
		return
	}
	t.updateCycles[kind].Observe(res.Cycles)
	if res.Reallocated > 0 {
		t.chainDepth.Observe(uint64(res.Reallocated))
	}
	t.event(telemetry.Event{
		Kind:     kind,
		Subtable: res.Subtable,
		RuleID:   ruleID,
		Cycles:   res.Cycles,
		Depth:    res.Reallocated,
	})
	t.syncGauges(d)
}

// resetTelemetry zeroes the device's attached metrics and drops
// retained events, so warmup traffic does not pollute reported
// quantiles. Gauges are re-synced (they describe current state, not
// history). No-op when telemetry is not attached.
func (d *Device) resetTelemetry() {
	t := d.tel
	if t == nil {
		return
	}
	for kind := range t.updateCycles {
		t.updateCycles[kind].Reset()
		t.updateErrors[kind].Reset()
	}
	t.lookups.Reset()
	t.reallocs.Reset()
	t.fresh.Reset()
	t.chainDepth.Reset()
	t.ring.Reset()
	t.syncGauges(d)
}
