package cluster

import (
	"fmt"
	"strconv"

	"catcam/internal/flightrec"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// clusterTelemetry holds the cluster-level metric instances; per-shard
// device metrics attach directly to the shard devices with a "shard"
// label.
type clusterTelemetry struct {
	lookups  *telemetry.Counter
	fanoutNs *telemetry.Histogram
}

// AttachTelemetry registers cluster metrics on reg — an aggregate
// classify counter, the classify batch latency histogram and the
// rebalance counters, which read RebalanceStats' atomics — and
// attaches every shard's device with a {"shard": "<i>"} label so
// per-shard update histograms, lookup counters and occupancy gauges
// stay distinct series on the shared registry. The ring is ignored
// (see telemetry.EventRing); it keeps the flowtable.Backend signature.
// Passing a nil registry detaches. Stores a cut carrying the new
// instruments.
func (c *Cluster) AttachTelemetry(reg *telemetry.Registry, _ *telemetry.EventRing, labels telemetry.Labels) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishLocked()
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
	}
	reg.CounterFunc("catcam_cluster_rebalance_passes_total",
		"rebalance passes that migrated at least one rule", labels, c.rebalPasses.Load)
	reg.CounterFunc("catcam_cluster_rebalance_rules_total",
		"rules migrated between shards by the rebalancer", labels, c.rebalMoved.Load)
	for i, s := range c.shards {
		s.AttachTelemetry(reg, nil, labels.Merged(telemetry.Labels{"shard": strconv.Itoa(i)}))
	}
}

// AttachTracer starts sampling update requests on every shard's device
// into tt; each update trace carries its shard's label. Passing nil
// detaches.
func (c *Cluster) AttachTracer(tt *trace.Tracer) {
	for _, s := range c.shards {
		s.AttachTracer(tt)
	}
}

// AttachAuditor wires aud into every shard's device (inline lookup
// audits, fail-report semantics) and into the cluster's own arbiter
// checks: sampled arbiter reductions verify InvArbiterWinner, and
// AuditSweep verifies InvShardInterval. Passing nil detaches.
func (c *Cluster) AttachAuditor(aud *flightrec.Auditor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aud = aud
	for _, s := range c.shards {
		s.AttachAuditor(aud)
	}
	c.publishLocked()
}

// AttachShadows attaches mk(shard) as each shard's differential shadow
// classifier. Each shard needs its own shadow — a shard's reference
// mirror holds exactly that shard's rules, so a shard-level miss is
// checked against a shard-level reference. Attach before installing
// rules; a nil return leaves that shard unshadowed.
func (c *Cluster) AttachShadows(mk func(shard int) *flightrec.Shadow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.shards {
		s.AttachShadow(mk(i))
	}
	c.publishLocked()
}

// AuditSweep runs one background audit pass over every shard's device
// plus the cluster-level routing check (InvShardInterval: bounds
// ordered, every rule inside its owner shard's interval), returning
// the aggregate sweep accounting. Returns the zero SweepInfo when no
// auditor is attached.
func (c *Cluster) AuditSweep() flightrec.SweepInfo {
	aud := c.cut.Load().aud
	if aud == nil {
		return flightrec.SweepInfo{}
	}
	var total flightrec.SweepInfo
	for _, s := range c.shards {
		total.Add(s.AuditSweep())
	}
	c.mu.Lock()
	err := c.routingInvariant()
	c.mu.Unlock()
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
