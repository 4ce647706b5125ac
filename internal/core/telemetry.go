package core

import "catcam/internal/telemetry"

// opKind indexes the per-request update series; opLabels names it as
// the series' op label. An insert_word request counts as an insert.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opModify
	opKinds
)

var opLabels = [opKinds]string{"insert", "delete", "modify"}

// deviceTelemetry holds the metric instances a device reports into
// when telemetry is attached. All fields may be nil-backed no-ops;
// every hot-path hook is a single nil test plus a few atomics.
type deviceTelemetry struct {
	updateCycles [opKinds]*telemetry.Histogram
	updateErrors [opKinds]*telemetry.Counter
	chainDepth   *telemetry.Histogram
}

// AttachTelemetry registers this device's metrics on reg and starts
// reporting into them. Labels are attached to every series — a
// flowtable passes {"table": "<id>"} so per-table series stay distinct
// on a shared registry. The ring is ignored (see telemetry.EventRing):
// an update's steps are recorded by the update trace (AttachTracer).
//
// The lookup, reallocation and fresh-subtable counters and the
// entries, active-subtable and epoch gauges are read series: the
// registry reads Stats, Len, ActiveSubtables and Epoch when it
// exports, so they keep reading the device after a detach.
//
// Attaching replaces any previous attachment. Passing a nil registry
// detaches.
func (d *Device) AttachTelemetry(reg *telemetry.Registry, _ *telemetry.EventRing, labels telemetry.Labels) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		d.tel = nil
		return
	}
	reg.CounterFunc("catcam_lookups_total", "lookups performed", labels, d.stats.lookups.Load)
	reg.CounterFunc("catcam_reallocations_total", "rules evicted between subtables", labels, d.stats.reallocations.Load)
	reg.CounterFunc("catcam_fresh_subtables_total", "subtables assigned at runtime", labels, d.stats.freshSubtables.Load)
	t := &deviceTelemetry{
		chainDepth: reg.Histogram("catcam_eviction_chain_depth",
			"rules moved per reallocating insert (1 in the paper's design; >1 only under the chained-reallocation ablation)",
			telemetry.DefaultDepthBuckets, labels),
	}
	reg.GaugeFunc("catcam_active_subtables", "subtables currently in use", labels,
		func() int64 { return int64(d.ActiveSubtables()) })
	reg.GaugeFunc("catcam_entries", "stored entries post range expansion", labels,
		func() int64 { return int64(d.Len()) })
	reg.GaugeFunc("catcam_epoch", "published snapshot epoch (per shard in cluster mode)", labels,
		func() int64 { return int64(d.Epoch()) })
	for kind := range t.updateCycles {
		op := labels.Merged(telemetry.Labels{"op": opLabels[kind]})
		t.updateCycles[kind] = reg.Histogram("catcam_update_cycles", "cycle cost per update request",
			telemetry.DefaultCycleBuckets, op)
		t.updateErrors[kind] = reg.Counter("catcam_update_errors_total",
			"updates rejected (device full / rule not present)", op)
	}
	d.tel = t
}

// observeOp records a completed (or rejected) top-level update.
func (d *Device) observeOp(kind opKind, res UpdateResult, err error) {
	t := d.tel
	if t == nil {
		return
	}
	if err != nil {
		t.updateErrors[kind].Inc()
		return
	}
	t.updateCycles[kind].Observe(res.Cycles)
}

// resetTelemetry zeroes the device's attached metrics, so warmup
// traffic does not pollute reported quantiles. The read series need
// nothing: they read the device's own counters, which its resets zero.
// No-op when telemetry is not attached.
func (d *Device) resetTelemetry() {
	t := d.tel
	if t == nil {
		return
	}
	for kind := range t.updateCycles {
		t.updateCycles[kind].Reset()
		t.updateErrors[kind].Reset()
	}
	t.chainDepth.Reset()
}
