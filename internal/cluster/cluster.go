// Package cluster composes N independent CATCAM devices ("shards")
// behind one classify/update API — the paper's interval-partitioning
// idea applied one level above the device. Inside a core.Device, a
// global priority matrix assigns each subtable a disjoint priority
// interval and reduces per-subtable match reports to one winner; here,
// a cluster-level arbiter assigns each *shard* a disjoint priority
// interval, classifies a lookup against every shard, and reduces the
// per-shard winners the same way the global priority matrix reduces
// subtable reports: the highest matched shard wins.
// Updates route to exactly one shard, so the O(1)-update story holds
// end to end: a cluster insert is one device insert.
//
// # Classify runs in the caller, against one cut
//
// Each shard is a complete core.Device whose classify path is
// lock-free (epoch-published snapshots, see DESIGN.md §13). Every
// cluster update, after its shards publish, stores a new cut: one view
// of every shard, published as a unit. A classify call loads the cut
// once, takes no lock, walks the views in the caller's goroutine in
// shard order and reduces, so a round answers as of one writer state,
// as silicon's global decision reads every subtable's report of one
// cycle. The cluster starts no goroutine. Each call checks its result
// slices out of a sync.Pool (a fanRound), so steady state allocates
// nothing.
//
// Live rebalancing migrates rules from hot/full shards to cold ones in
// bounded batches (see rebalance.go).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/trace"
)

// Mode names a partition scheme. The cluster has one, the interval
// partition.
//
// Deprecated: kept only because benchmark/ still sets
// flowtable.TableConfig.Partition; both are deleted with the
// benchmark-side edits of ROADMAP item 5.
type Mode int

// ModeInterval is the interval partition, the only scheme.
//
// Deprecated: see Mode.
const ModeInterval Mode = 0

// ErrDuplicate is returned when an insert reuses a live rule ID; the
// cluster's router requires IDs to be unique so deletes can be routed
// without a priority.
var ErrDuplicate = errors.New("cluster: rule ID already installed")

// Config sizes a cluster.
type Config struct {
	// Shards is the device count (>= 1).
	Shards int
	// Device sizes each shard (every shard gets the same geometry).
	Device core.Config
}

// ownedRule is the cluster's control-plane record of one installed
// rule: which shard holds it and the full rule body (what an SDN
// agent's rule store retains anyway). Migration reads the body back
// from here rather than reverse-engineering range-expanded ternary
// words out of the devices.
type ownedRule struct {
	shard int
	rule  rules.Rule
}

// Cluster is a sharded CATCAM: N devices, one arbiter.
//
// Lock order (never take a later lock while holding an earlier one in
// reverse): mu -> routeMu -> per-shard device mutexes.
//
//   - mu serializes writers: an insert, delete or modify, a rebalance
//     batch and an attach each hold it across their shard updates and
//     the cut they store. It also guards the instruments the next cut
//     carries and the reset-hook list. The rebalance counters are
//     atomics, written under it and read without it.
//   - routeMu guards the routing state (owner map, interval bounds). A
//     writer stores its cut and changes owner records under it at once.
//   - Classify takes no lock: it loads the cut, and each call checks
//     its own working set (a fanRound) out of roundPool.
type Cluster struct {
	shards []*core.Device // indexed by shard ID

	mu      sync.Mutex
	cut     atomic.Pointer[cut] //catcam:write-guarded-by mu
	routeMu sync.Mutex
	owner   map[int]ownedRule //catcam:guarded-by routeMu
	bounds  []int             //catcam:guarded-by routeMu

	// roundPool recycles fanRound working sets so the steady-state
	// classify path allocates nothing.
	roundPool sync.Pool

	tel *clusterTelemetry  //catcam:guarded-by mu
	aud *flightrec.Auditor //catcam:guarded-by mu

	rebalPasses atomic.Uint64
	rebalMoved  atomic.Uint64
	resetHooks  []func() //catcam:guarded-by mu

	// structs is the state observatory's reusable per-shard derive
	// buffers (see structure.go); a derive takes them, so a concurrent
	// one allocates its own.
	structs atomic.Pointer[[]core.Structure]
}

// cut is what a classify round reads: one view per shard, stored as a
// unit after every cluster update. seq counts the cuts stored; the
// instruments ride the cut as a device's ride its snapshot.
//
//catcam:snapshot
type cut struct {
	seq   uint64
	parts []core.View
	tel   *clusterTelemetry  //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	aud   *flightrec.Auditor //catcam:allow epoch "internally synchronized instrument, not classify-read state"
}

// fanRound is one classify call's working set: one result slice per
// shard. Rounds live in Cluster.roundPool; every round owns all of its
// mutable state, so any number may be in flight concurrently.
//
//catcam:scratch
type fanRound struct {
	results [][]core.LookupResult // indexed by shard ID
}

// New builds a cluster of cfg.Shards devices. It starts no goroutine:
// classify runs in the caller.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("cluster: invalid shard count %d", cfg.Shards))
	}
	c := &Cluster{owner: make(map[int]ownedRule)}
	c.roundPool.New = func() any {
		return &fanRound{results: make([][]core.LookupResult, cfg.Shards)}
	}
	for i := 0; i < cfg.Shards; i++ {
		dev := core.NewDevice(cfg.Device)
		dev.SetTraceLabels(-1, i)
		c.shards = append(c.shards, dev)
	}
	// Split [0, 65536) evenly, the right prior for ClassBench-style
	// uniform priorities; the rebalancer adapts the bounds to whatever
	// the workload actually is.
	for i := 1; i < cfg.Shards; i++ {
		c.bounds = append(c.bounds, i*65536/cfg.Shards)
	}
	c.publishLocked() // nothing else holds c yet
	return c
}

// publishLocked stores the next cut: every shard's current view and
// the attached instruments. Caller holds mu; this is the only place
// c.cut is stored. A writer that changes owner records stores the cut
// under routeMu with them (see auditReduce).
func (c *Cluster) publishLocked() {
	parts := make([]core.View, len(c.shards))
	for i, s := range c.shards {
		parts[i] = s.View()
	}
	var seq uint64
	if old := c.cut.Load(); old != nil {
		seq = old.seq + 1
	}
	c.cut.Store(&cut{seq: seq, parts: parts, tel: c.tel, aud: c.aud})
}

// SetTraceLabels sets table as the flow-table ID on every shard's
// spans (each shard keeps its shard ID) and stores a cut of the
// relabelled shards.
func (c *Cluster) SetTraceLabels(table int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.shards {
		s.SetTraceLabels(table, i)
	}
	c.publishLocked()
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard exposes one backing device (stats, invariants, tests). A change
// published on it directly is behind the cut, which CheckInvariant reports.
func (c *Cluster) Shard(i int) *core.Device { return c.shards[i] }

// Bounds returns a copy of the interval partition bounds: Shards-1
// ascending priority upper bounds; shard i owns priorities p with
// bounds[i-1] < p <= bounds[i] (open below the first, unbounded above
// the last). The rebalancer moves them, so two calls may differ.
func (c *Cluster) Bounds() []int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return append([]int(nil), c.bounds...)
}

// routeLocked picks the home shard for a priority under routeMu.
func (c *Cluster) routeLocked(priority int) int {
	return sort.SearchInts(c.bounds, priority)
}

// routeInsert claims r's owner-map slot and returns its home shard, the
// one whose priority interval holds r. Rejects duplicate IDs.
func (c *Cluster) routeInsert(r rules.Rule) (int, error) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if _, dup := c.owner[r.ID]; dup {
		return 0, fmt.Errorf("%w: %d", ErrDuplicate, r.ID)
	}
	sh := c.routeLocked(r.Priority)
	c.owner[r.ID] = ownedRule{shard: sh, rule: r}
	return sh, nil
}

// InsertRule routes the rule to the shard whose priority interval holds
// it and inserts it there. Exactly one device is touched, so the update
// cost is one device update: the cluster preserves the paper's O(1)
// alteration end to end.
func (c *Cluster) InsertRule(r rules.Rule) (core.UpdateResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, err := c.routeInsert(r)
	if err != nil {
		return core.UpdateResult{}, err
	}
	res, err := c.shards[sh].InsertRule(r)
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	c.publishLocked()
	if err != nil {
		delete(c.owner, r.ID)
	}
	return res, err
}

// DeleteRule routes the delete through the owner map to the one shard
// holding the rule.
func (c *Cluster) DeleteRule(ruleID int) (core.UpdateResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routeMu.Lock()
	o, ok := c.owner[ruleID]
	c.routeMu.Unlock()
	if !ok {
		return core.UpdateResult{}, core.ErrNotFound
	}
	res, err := c.shards[o.shard].DeleteRule(ruleID)
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	c.publishLocked()
	if err == nil {
		delete(c.owner, ruleID)
	}
	return res, err
}

// ModifyRule replaces a rule with a new version keeping its ID; no
// reader ever sees the rule absent. When the new priority stays inside
// the interval of the shard that holds the old version, the shard's
// Device.ModifyRule makes the change. Otherwise the new version is
// inserted into the destination shard and the old one deleted from the
// source. Either way the new version is stored first, one cut is stored
// after the shards, and the owner record moves only on success, so a
// round sees the old version or the new one, and a failed modify leaves
// the old version installed, owned and answering. Cycle costs of both
// phases are reported together, mirroring Device.ModifyRule.
func (c *Cluster) ModifyRule(ruleID int, newRule rules.Rule) (res core.UpdateResult, err error) {
	if newRule.ID != ruleID {
		return res, fmt.Errorf("cluster: modify must keep rule ID %d, got %d", ruleID, newRule.ID)
	}
	if newRule.ExpansionCount() == 0 {
		// Rejected before either path touches a shard.
		return res, fmt.Errorf("cluster: modify of rule %d: %w", ruleID, core.ErrEmptyRule)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routeMu.Lock()
	o, ok := c.owner[ruleID]
	dst := c.routeLocked(newRule.Priority)
	c.routeMu.Unlock()
	switch {
	case !ok:
		return res, core.ErrNotFound
	case dst == o.shard:
		res, err = c.shards[dst].ModifyRule(ruleID, newRule)
	default:
		res, err = c.move(newRule, o.shard, dst)
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	c.publishLocked()
	if err == nil {
		c.owner[ruleID] = ownedRule{shard: dst, rule: newRule}
	}
	return res, err
}

// Lookup classifies one header and returns the winning action: a
// LookupHeaderBatch of one.
//
//catcam:hotpath
func (c *Cluster) Lookup(h rules.Header) (int, bool) {
	hs := [1]rules.Header{h}
	var res [1]core.LookupResult
	r := c.LookupHeaderBatchTraced(nil, hs[:], res[:0])[0]
	if !r.OK {
		return 0, false
	}
	return r.Entry.Action, true
}

// LookupHeaderBatch is LookupHeaderBatchTraced without a trace.
//
//catcam:hotpath
func (c *Cluster) LookupHeaderBatch(hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	return c.LookupHeaderBatchTraced(nil, hs, dst)
}

// LookupHeaderBatchTraced classifies headers through the whole cluster:
// it loads the cut once, runs the batch against every shard's view in
// it, in shard order, then the arbiter reduces the per-shard winners to
// one result per header, appended to dst in input order. It takes no
// lock, and each call checks its own fanRound out of the pool, so
// concurrent batches proceed independently. With a reused dst the
// steady-state path allocates nothing.
//
// A sampled batch's tr (nil otherwise) receives a fanout_dispatch span
// around the walk over the shards, one shard_kernel span per shard
// inside it, the per-shard device/sram spans beneath those, and an
// arbiter_merge span around the reduce loop. Every span nests in time
// inside its caller's.
//
//catcam:hotpath
func (c *Cluster) LookupHeaderBatchTraced(tr *trace.Trace, hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	if len(hs) == 0 {
		return dst
	}
	r := c.roundPool.Get().(*fanRound) //catcam:allow alloc "sync.Pool checkout; allocates only while the pool is cold"
	k := c.cut.Load()
	var start time.Time
	t := k.tel
	if t != nil {
		start = time.Now()
	}
	var dispatchStart uint64
	if tr != nil {
		dispatchStart = trace.Nanos()
	}
	for id, dev := range c.shards {
		var shardStart uint64
		if tr != nil {
			shardStart = trace.Nanos()
		}
		r.results[id] = dev.LookupHeaderBatchAt(k.parts[id], tr, hs, r.results[id][:0])
		if tr != nil {
			//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
			tr.Span(trace.StageShardKernel, -1, id, -1, -1, shardStart, 0)
		}
	}
	var mergeStart uint64
	if tr != nil {
		//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
		tr.Span(trace.StageFanoutDispatch, -1, -1, -1, -1, dispatchStart, 0)
		mergeStart = trace.Nanos()
	}
	for i := range hs {
		dst = append(dst, c.reduce(r, k, i))
	}
	if tr != nil {
		//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
		tr.Span(trace.StageArbiterMerge, -1, -1, -1, -1, mergeStart, 0)
	}
	if t != nil {
		t.lookups.Add(uint64(len(hs)))
		t.fanoutNs.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	c.roundPool.Put(r) //catcam:allow alloc "sync.Pool return; the checkin itself does not allocate"
	return dst
}

// reduce arbitrates header i's per-shard winners into the cluster
// winner: the highest matched shard. Shard order IS priority order,
// exactly as the global priority matrix picks the winning subtable by
// interval order. Sampled classifications additionally verify the
// arbiter against an independent rank walk (InvArbiterWinner).
func (c *Cluster) reduce(r *fanRound, k *cut, i int) core.LookupResult {
	win := len(c.shards) - 1
	for win >= 0 && !r.results[win][i].OK {
		win--
	}
	if k.aud.SampleLookup() {
		c.auditReduce(r, k, i, win) //catcam:allow alloc "sampled arbiter cross-check; rate-gated off the steady-state path"
	}
	if win < 0 {
		return core.LookupResult{}
	}
	return r.results[win][i]
}

// auditReduce cross-checks one sampled arbitration of a round that read
// cut k: the arbiter's winner must equal the rank-walk winner (the
// metadata reduction), and the winning rule's owner-map record must
// name the shard that reported it. Cold path.
func (c *Cluster) auditReduce(r *fanRound, k *cut, i, win int) {
	best := -1
	for s := range c.shards {
		if !r.results[s][i].OK {
			continue
		}
		if best < 0 || r.results[best][i].Entry.Rank.Less(r.results[s][i].Entry.Rank) {
			best = s
		}
	}
	k.aud.Check(flightrec.InvArbiterWinner, best == win, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: win, RuleID: -1,
			Detail: fmt.Sprintf("arbiter chose shard %d, rank walk %d", win, best),
		}
	})
	if win < 0 {
		return
	}
	// The owner record is live state, so it is compared only when no
	// writer stored a cut after k: a writer stores its cut and changes
	// records in one routeMu section, so a record read while k is still
	// current is the one k's views hold.
	id := r.results[win][i].Entry.Rank.RuleID
	c.routeMu.Lock()
	o, ok := c.owner[id]
	c.routeMu.Unlock()
	if c.cut.Load() != k {
		return
	}
	k.aud.Check(flightrec.InvArbiterWinner, ok && o.shard == win, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: win, RuleID: id,
			Detail: fmt.Sprintf("winner rule %d owner record: present=%v shard=%d, reported by shard %d",
				id, ok, o.shard, win),
		}
	})
}

// Len returns the number of installed rules (pre range expansion).
func (c *Cluster) Len() int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return len(c.owner)
}

// Entries returns stored entries across all shards (post expansion).
func (c *Cluster) Entries() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

// Epoch returns the sequence number of the current cut — a monotonic
// stamp that advances with every cut stored (every update, attach and
// rebalance group). Consumers that cache classification decisions (the
// ingress flow cache) compare stamps for equality: any rule change
// anywhere in the cluster changes the value. Lock-free: one load.
//
//catcam:hotpath
func (c *Cluster) Epoch() uint64 { return c.cut.Load().seq }

// ShardEntries returns per-shard stored entry counts, index-aligned
// with Shard.
func (c *Cluster) ShardEntries() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Len()
	}
	return out
}

// Stats aggregates device statistics across the shards.
func (c *Cluster) Stats() core.Stats {
	var total core.Stats
	for _, s := range c.shards {
		total.Add(s.Stats())
	}
	return total
}

// ResetStats zeroes every shard's statistics and telemetry, then runs
// the cluster-level reset observers (see OnStatsReset).
func (c *Cluster) ResetStats() {
	for _, s := range c.shards {
		s.ResetStats()
	}
	c.mu.Lock()
	hooks := append([]func(){}, c.resetHooks...)
	c.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// CheckInvariant verifies every shard's device invariants plus the
// cluster-level routing invariants (shard interval disjointness,
// owner-map consistency, a current cut). Test support; AuditSweep runs
// the same cluster check under the auditor.
func (c *Cluster) CheckInvariant() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.routingInvariant(); err != nil {
		return err
	}
	for i, s := range c.shards {
		if err := s.CheckInvariant(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// routingInvariant checks the cluster-level structural invariants:
// every cut part is its shard's current view (no shard published behind
// the cluster), ascending interval bounds, every owner record naming a
// live shard, and every owned rule inside its shard's interval.
// Callers hold mu.
func (c *Cluster) routingInvariant() error {
	for i, v := range c.cut.Load().parts {
		if v != c.shards[i].View() {
			return fmt.Errorf("cluster: shard %d published behind the cut", i)
		}
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if len(c.bounds) != len(c.shards)-1 {
		return fmt.Errorf("cluster: %d bounds for %d shards", len(c.bounds), len(c.shards))
	}
	for i := 1; i < len(c.bounds); i++ {
		if c.bounds[i] < c.bounds[i-1] {
			return fmt.Errorf("cluster: bounds out of order at %d: %v", i, c.bounds)
		}
	}
	for id, o := range c.owner {
		if o.shard < 0 || o.shard >= len(c.shards) {
			return fmt.Errorf("cluster: rule %d owned by unknown shard %d", id, o.shard)
		}
		if o.rule.ID != id {
			return fmt.Errorf("cluster: owner map key %d holds rule %d", id, o.rule.ID)
		}
		if want := c.routeLocked(o.rule.Priority); want != o.shard {
			return fmt.Errorf("cluster: rule %d priority %d lives on shard %d outside its interval (want shard %d, bounds %v)",
				id, o.rule.Priority, o.shard, want, c.bounds)
		}
	}
	return nil
}
