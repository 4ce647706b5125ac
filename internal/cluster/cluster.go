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
// # Classify runs in the caller
//
// Each shard is a complete core.Device whose classify path is
// lock-free (epoch-published snapshots, see internal/core/snapshot.go
// and DESIGN.md §13), so nothing below the cluster serializes
// concurrent lookups. A classify call walks the shards itself, in the
// caller's goroutine and in shard order, then reduces; the cluster
// starts no goroutine. Parallelism comes from concurrent callers, as it
// does for a single device. Each call checks its per-shard result
// slices and epoch stamps out of a sync.Pool as a fanRound and returns
// them after the reduce, so any number of calls run concurrently and
// steady state allocates nothing.
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
//   - mu (RWMutex) is the migration epoch: classify, inserts and
//     deletes hold RLock, so they run concurrently with each other;
//     every modify, a rebalance batch and attach calls hold Lock, so a
//     rule is never observed mid-flight between shards. It also guards
//     the rebalance counters and the reset-hook list: written under
//     Lock, read under RLock.
//   - routeMu guards the routing state (owner map, interval bounds).
//   - Classify takes no cluster-wide lock beyond mu.RLock: each call
//     checks its own working set (a fanRound) out of roundPool, so
//     concurrent classify batches proceed independently.
type Cluster struct {
	shards []*core.Device // indexed by shard ID

	mu      sync.RWMutex
	routeMu sync.Mutex
	owner   map[int]ownedRule //catcam:guarded-by routeMu
	bounds  []int             //catcam:guarded-by routeMu

	// roundPool recycles fanRound working sets so the steady-state
	// classify path allocates nothing. Rounds are self-contained: a
	// checked-out round is owned by exactly one classify call.
	roundPool sync.Pool

	tel *clusterTelemetry
	aud *flightrec.Auditor

	rebalPasses uint64   //catcam:guarded-by mu
	rebalMoved  uint64   //catcam:guarded-by mu
	resetHooks  []func() //catcam:guarded-by mu

	// structs is the state observatory's reusable per-shard derive
	// buffers (see structure.go); a derive takes them, so a concurrent
	// one allocates its own.
	structs atomic.Pointer[[]core.Structure]
}

// fanRound is one classify call's working set: one result slice and
// one epoch stamp per shard. Rounds live in Cluster.roundPool; because
// every round owns all of its mutable state, any number of rounds may
// be in flight concurrently — the per-shard classify underneath is
// lock-free.
//
//catcam:scratch
type fanRound struct {
	results [][]core.LookupResult // indexed by shard ID
	// epochs records each shard's snapshot epoch just before that
	// shard classified. auditReduce compares against the shard's
	// current epoch to detect that an update published between classify
	// and audit — the owner-map cross-check is skipped for such stale
	// rounds (same suppression the shadow applies), because comparing
	// time-T results against a time-T+δ owner map would report churn as
	// corruption.
	epochs []uint64 // indexed by shard ID
}

// New builds a cluster of cfg.Shards devices. It starts no goroutine:
// classify runs in the caller.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("cluster: invalid shard count %d", cfg.Shards))
	}
	c := &Cluster{owner: make(map[int]ownedRule)}
	c.roundPool.New = func() any {
		return &fanRound{
			results: make([][]core.LookupResult, cfg.Shards),
			epochs:  make([]uint64, cfg.Shards),
		}
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
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard exposes one backing device (stats, invariants, tests).
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	sh, err := c.routeInsert(r)
	if err != nil {
		return core.UpdateResult{}, err
	}

	res, err := c.shards[sh].InsertRule(r)
	if err != nil {
		c.routeMu.Lock()
		delete(c.owner, r.ID)
		c.routeMu.Unlock()
	}
	return res, err
}

// DeleteRule routes the delete through the owner map to the one shard
// holding the rule.
func (c *Cluster) DeleteRule(ruleID int) (core.UpdateResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.routeMu.Lock()
	o, ok := c.owner[ruleID]
	c.routeMu.Unlock()
	if !ok {
		return core.UpdateResult{}, core.ErrNotFound
	}
	res, err := c.shards[o.shard].DeleteRule(ruleID)
	if err == nil {
		c.routeMu.Lock()
		delete(c.owner, ruleID)
		c.routeMu.Unlock()
	}
	return res, err
}

// ModifyRule replaces a rule with a new version keeping its ID; no
// reader ever sees the rule absent. Every modify holds the migration
// epoch (mu.Lock, as a rebalance batch does), so the owner and the
// destination it reads cannot move before the device calls. When the
// new priority stays inside the interval of the shard that holds the
// old version, the shard's Device.ModifyRule publishes the change as
// one epoch. Otherwise the new version is inserted into the destination
// shard, the old one deleted from the source and the owner record
// moved, with classify excluded until all three are done. A destination
// that cannot take the new version returns its error with the old
// version still installed and owned. Cycle costs of both phases are
// reported together, mirroring Device.ModifyRule.
func (c *Cluster) ModifyRule(ruleID int, newRule rules.Rule) (res core.UpdateResult, err error) {
	if newRule.ID != ruleID {
		return res, fmt.Errorf("cluster: modify must keep rule ID %d, got %d", ruleID, newRule.ID)
	}
	if newRule.ExpansionCount() == 0 {
		// Rejected before either path deletes the old version.
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
		if res, err = c.move(newRule, o.shard, dst); err != nil {
			return res, err // the old version is still installed and owned
		}
	}
	c.routeMu.Lock()
	switch {
	case err == nil:
		c.owner[ruleID] = ownedRule{shard: dst, rule: newRule}
	case !errors.Is(err, core.ErrNotFound):
		// The device deleted the old version before its insert failed.
		delete(c.owner, ruleID)
	}
	c.routeMu.Unlock()
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
// the caller's goroutine runs the batch against every shard in shard
// order (each lock-free, with pooled scratch), then the arbiter reduces
// the per-shard winners to one result per header, appended to dst in
// input order. Concurrent batches proceed independently — each checks
// its own fanRound out of the pool. With a reused dst the steady-state
// path allocates nothing.
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
	dst = c.lookupBatch(r, tr, hs, dst)
	c.roundPool.Put(r) //catcam:allow alloc "sync.Pool return; the checkin itself does not allocate"
	return dst
}

// lookupBatch classifies hs against every shard into the round's
// working set, then reduces. Takes only mu.RLock (the migration epoch)
// — concurrent rounds do not serialize against each other.
func (c *Cluster) lookupBatch(r *fanRound, tr *trace.Trace, hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var start time.Time
	t := c.tel
	if t != nil {
		start = time.Now()
	}
	var dispatchStart uint64
	if tr != nil {
		dispatchStart = trace.Nanos()
	}
	for id, dev := range c.shards {
		// Stamp the epoch BEFORE loading the classify snapshot: if the
		// shard's epoch still equals this stamp at audit time, no
		// publication happened in between, so the snapshot classified
		// against was exactly this epoch's.
		r.epochs[id] = dev.Epoch()
		var shardStart uint64
		if tr != nil {
			shardStart = trace.Nanos()
		}
		r.results[id] = dev.LookupHeaderBatchTraced(tr, hs, r.results[id][:0])
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
		dst = append(dst, c.reduce(r, i))
	}
	if tr != nil {
		//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
		tr.Span(trace.StageArbiterMerge, -1, -1, -1, -1, mergeStart, 0)
	}
	if t != nil {
		t.lookups.Add(uint64(len(hs)))
		t.fanoutNs.Observe(uint64(time.Since(start).Nanoseconds()))
	}
	return dst
}

// reduce arbitrates header i's per-shard winners into the cluster
// winner: the highest matched shard. Shard order IS priority order,
// exactly as the global priority matrix picks the winning subtable by
// interval order. Sampled classifications additionally verify the
// arbiter against an independent rank walk (InvArbiterWinner).
func (c *Cluster) reduce(r *fanRound, i int) core.LookupResult {
	win := len(c.shards) - 1
	for win >= 0 && !r.results[win][i].OK {
		win--
	}
	if c.aud.SampleLookup() {
		c.auditReduce(r, i, win) //catcam:allow alloc "sampled arbiter cross-check; rate-gated off the steady-state path"
	}
	if win < 0 {
		return core.LookupResult{}
	}
	return r.results[win][i]
}

// auditReduce cross-checks one sampled arbitration: the arbiter's
// winner must equal the rank-walk winner (the metadata reduction), and
// the winning rule's owner-map record must name the shard that
// reported it. Cold path; runs under mu.RLock with the round's results
// still live.
func (c *Cluster) auditReduce(r *fanRound, i, win int) {
	best := -1
	for s := range c.shards {
		if !r.results[s][i].OK {
			continue
		}
		if best < 0 || r.results[best][i].Entry.Rank.Less(r.results[s][i].Entry.Rank) {
			best = s
		}
	}
	c.aud.Check(flightrec.InvArbiterWinner, best == win, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: win, RuleID: -1,
			Detail: fmt.Sprintf("arbiter chose shard %d, rank walk %d", win, best),
		}
	})
	if win < 0 {
		return
	}
	// The owner-map cross-check compares the round's results against
	// shared mutable state, so it is only meaningful when the winning
	// shard has not published a new epoch since it classified: a
	// concurrent delete removes the owner record after the round
	// answered, and flagging that window would report churn as
	// corruption. Seqlock order: lookupBatch stamped the epoch before the
	// shard classified, the record is read here, and the stamp is validated
	// only after that read. DeleteRule publishes before it drops the
	// record, so a record it removed is never seen under a stamp that
	// still validates; checking before the read leaves that window open.
	id := r.results[win][i].Entry.Rank.RuleID
	c.routeMu.Lock()
	o, ok := c.owner[id]
	c.routeMu.Unlock()
	if c.shards[win].Epoch() != r.epochs[win] {
		return
	}
	c.aud.Check(flightrec.InvArbiterWinner, ok && o.shard == win, func() flightrec.Violation {
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

// Epoch returns the sum of every shard's published epoch counter — a
// monotonic stamp that advances whenever any shard publishes a new
// snapshot (every update, attach, and rebalance step). Consumers that
// cache classification decisions (the ingress flow cache) compare
// stamps for equality: any rule change anywhere in the cluster changes
// the value, invalidating cached decisions. Lock-free — one atomic
// snapshot load per shard.
//
//catcam:hotpath
func (c *Cluster) Epoch() uint64 {
	var e uint64
	for _, s := range c.shards {
		e += s.Epoch()
	}
	return e
}

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
	c.mu.RLock()
	hooks := append([]func(){}, c.resetHooks...)
	c.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// CheckInvariant verifies every shard's device invariants plus the
// cluster-level routing invariants (shard interval disjointness and
// owner-map consistency). Test support; AuditSweep runs the same
// cluster check under the auditor.
func (c *Cluster) CheckInvariant() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
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
// ascending interval bounds, every owner record naming a live shard,
// and every owned rule inside its shard's interval. Callers hold mu
// (read or write).
func (c *Cluster) routingInvariant() error {
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
