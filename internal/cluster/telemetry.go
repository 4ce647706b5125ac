package cluster

import (
	"fmt"
	"strconv"

	"catcam/internal/flightrec"
	"catcam/internal/telemetry"
)

// clusterTelemetry holds the cluster-level metric instances; per-shard
// device metrics attach directly to the shard devices with a "shard"
// label.
type clusterTelemetry struct {
	lookups    *telemetry.Counter
	fanoutNs   *telemetry.Histogram
	rebalances *telemetry.Counter
	moved      *telemetry.Counter
	ring       *telemetry.EventRing
}

// event forwards a cluster event to the ring.
func (t *clusterTelemetry) event(e telemetry.Event) {
	if t == nil || t.ring == nil {
		return
	}
	t.ring.Emit(e)
}

// AttachTelemetry registers cluster metrics on reg — an aggregate
// classify counter, the classify batch latency histogram and rebalance
// counters — and attaches every shard's device with a {"shard": "<i>"}
// label so per-shard update histograms, lookup counters and occupancy
// gauges stay distinct series on the shared registry. Passing a nil
// registry detaches.
func (c *Cluster) AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.tel = nil
		for _, s := range c.shards {
			s.AttachTelemetry(nil, nil, nil)
		}
		return
	}
	c.tel = &clusterTelemetry{
		lookups: reg.Counter("catcam_cluster_lookups_total",
			"headers classified through the cluster", labels),
		fanoutNs: reg.Histogram("catcam_cluster_fanout_ns",
			"wall-clock nanoseconds per cluster classify batch (shard walk, arbiter reduce)",
			telemetry.DefaultLatencyBuckets, labels),
		rebalances: reg.Counter("catcam_cluster_rebalance_passes_total",
			"rebalance passes that migrated at least one rule", labels),
		moved: reg.Counter("catcam_cluster_rebalance_rules_total",
			"rules migrated between shards by the rebalancer", labels),
		ring: ring,
	}
	for i, s := range c.shards {
		s.AttachTelemetry(reg, ring, labels.Merged(telemetry.Labels{"shard": strconv.Itoa(i)}))
	}
}

// AttachFlightRecorder starts sampling causal update traces from every
// shard's device into the shared recorder. table is carried on every
// trace (-1 outside a flowtable). Passing nil detaches.
func (c *Cluster) AttachFlightRecorder(rec *flightrec.Recorder, table int) {
	for _, s := range c.shards {
		s.AttachFlightRecorder(rec, table)
	}
}

// AttachAuditor wires aud into every shard's device (inline lookup
// audits, fail-report semantics) and into the cluster's own arbiter
// checks: sampled arbiter reductions verify InvArbiterWinner, and
// AuditSweep verifies InvShardInterval. Passing nil detaches.
func (c *Cluster) AttachAuditor(aud *flightrec.Auditor) {
	c.mu.Lock()
	c.aud = aud
	c.mu.Unlock()
	for _, s := range c.shards {
		s.AttachAuditor(aud)
	}
}

// AttachShadows attaches mk(shard) as each shard's differential shadow
// classifier. Each shard needs its own shadow — a shard's reference
// mirror holds exactly that shard's rules, so a shard-level miss is
// checked against a shard-level reference. Attach before installing
// rules; a nil return leaves that shard unshadowed.
func (c *Cluster) AttachShadows(mk func(shard int) *flightrec.Shadow) {
	for i, s := range c.shards {
		s.AttachShadow(mk(i))
	}
}

// AuditSweep runs one background audit pass over every shard's device
// plus the cluster-level routing check (InvShardInterval: bounds
// ordered, every rule inside its owner shard's interval), returning
// the aggregate sweep accounting. Returns the zero SweepInfo when no
// auditor is attached.
func (c *Cluster) AuditSweep() flightrec.SweepInfo {
	c.mu.RLock()
	aud := c.aud
	c.mu.RUnlock()
	if aud == nil {
		return flightrec.SweepInfo{}
	}
	var total flightrec.SweepInfo
	for _, s := range c.shards {
		info := s.AuditSweep()
		total.Checks += info.Checks
		total.Violations += info.Violations
		total.DurationMs += info.DurationMs
	}
	c.mu.RLock()
	err := c.routingInvariant()
	c.mu.RUnlock()
	ok := aud.Check(flightrec.InvShardInterval, err == nil, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: -1, RuleID: -1, Detail: err.Error(),
		}
	})
	total.Checks++
	if !ok {
		total.Violations++
	}
	return total
}

// String describes the cluster for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster(%d shards, interval)", len(c.shards))
}
