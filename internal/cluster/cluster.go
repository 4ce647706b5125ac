// Package cluster composes N independent CATCAM devices ("shards")
// behind one classify/update API — the paper's interval-partitioning
// idea applied one level above the device. Inside a core.Device, a
// global priority matrix assigns each subtable a disjoint priority
// interval and reduces per-subtable match reports to one winner; here,
// a cluster-level arbiter assigns each *shard* a disjoint priority
// interval, fans a lookup out to every shard in parallel, and reduces
// the per-shard winners the same way the global matrix reduces subtable
// reports: the highest matched shard wins.
// Updates route to exactly one shard, so the O(1)-update story holds
// end to end: a cluster insert is one device insert.
//
// # Concurrent fan-out rounds
//
// Each shard is a complete core.Device whose classify path is
// lock-free (epoch-published snapshots, see internal/core/snapshot.go
// and DESIGN.md §13), so nothing below the cluster serializes
// concurrent lookups. The cluster matches that: every classify call
// checks a complete working set — headers, per-shard result slices, a
// WaitGroup — out of a sync.Pool as a fanRound, dispatches it to the
// per-shard worker channels, and returns it after the reduce. Rounds
// carry all their own state, so any number of batches fan out
// concurrently; Config.FanWorkers workers per shard (default 1) bound
// how many rounds one shard serves at once. Steady state allocates
// nothing: the pool recycles rounds and each round's slices are
// reused across checkouts.
//
// Live rebalancing migrates rules from hot/full shards to cold ones in
// bounded batches (see rebalance.go), and snapshot/restore round-trips
// a whole cluster deterministically (see snapshot.go).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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
	// Bounds optionally seeds the interval partition: Shards-1
	// ascending priority upper bounds; shard i owns priorities p with
	// Bounds[i-1] < p <= Bounds[i] (open below the first, unbounded
	// above the last). Nil splits [0, 65536) evenly — the right prior
	// for ClassBench-style uniform priorities; the rebalancer adapts
	// the bounds to whatever the workload actually is.
	Bounds []int
	// FanWorkers is the number of classify workers per shard — the
	// number of fan-out rounds one shard can serve concurrently. The
	// device classify path is lock-free, so workers on the same shard
	// genuinely run in parallel. <= 0 means 1.
	FanWorkers int
}

// ownedRule is the cluster's control-plane record of one installed
// rule: which shard holds it and the full rule body (what an SDN
// agent's rule store retains anyway). Migration and snapshot read the
// body back from here rather than reverse-engineering range-expanded
// ternary words out of the devices.
type ownedRule struct {
	shard int
	rule  rules.Rule
}

// Cluster is a sharded CATCAM: N devices, one arbiter.
//
// Lock order (never take a later lock while holding an earlier one in
// reverse): mu -> routeMu -> per-shard device mutexes.
//
//   - mu (RWMutex) is the migration epoch: classify and updates hold
//     RLock, so they run concurrently with each other; a rebalance
//     batch, a modify that crosses shards, snapshot restore and attach
//     calls hold Lock, so a rule is never observed mid-flight between
//     shards.
//   - routeMu guards the routing state (owner map, interval bounds).
//   - Fan-outs take no cluster-wide lock: each round checks its own
//     working set (a fanRound) out of roundPool, so concurrent
//     classify batches proceed independently.
type Cluster struct {
	cfg    Config
	shards []*shard

	mu      sync.RWMutex
	routeMu sync.Mutex
	owner   map[int]ownedRule //catcam:guarded-by routeMu
	bounds  []int             //catcam:guarded-by routeMu

	// roundPool recycles fanRound working sets so the steady-state
	// classify path allocates nothing. Rounds are self-contained: a
	// checked-out round is owned by exactly one classify call.
	roundPool sync.Pool

	closeOnce sync.Once

	tel *clusterTelemetry
	aud *flightrec.Auditor

	rebalMu     sync.Mutex
	rebalPasses uint64 //catcam:guarded-by rebalMu
	rebalMoved  uint64 //catcam:guarded-by rebalMu

	// structMu serializes DeriveStructure's per-shard scratch buffers;
	// hookMu guards the stats-reset observer list (see structure.go).
	structMu     sync.Mutex
	shardStructs []core.Structure //catcam:guarded-by structMu
	hookMu       sync.Mutex
	resetHooks   []func() //catcam:guarded-by hookMu
}

// shard is one device plus its fan-out worker plumbing.
type shard struct {
	id  int
	dev *core.Device
	// work carries fan-out rounds to this shard's workers. Each round
	// is sent to every shard once; whichever of the shard's FanWorkers
	// workers receives it classifies the round's headers against this
	// device into the round's per-shard result slot.
	work chan *fanRound
}

// fanRound is one fan-out's complete working set: the batch headers,
// the optional span sink, one result slice per shard, and the
// WaitGroup that orders the workers' writes before the dispatcher's
// reduce. Rounds live in Cluster.roundPool; because every round owns
// all of its mutable state, any number of rounds may be in flight
// concurrently — the per-shard classify underneath is lock-free.
//
//catcam:scratch
type fanRound struct {
	hdrs []rules.Header
	// tr is this round's span sink (nil on untraced rounds). Workers
	// read it like hdrs: ownership transfers with the channel send and
	// returns with the WaitGroup.
	tr      *trace.Trace
	results [][]core.LookupResult // indexed by shard ID
	// epochs records each shard's snapshot epoch as observed by its
	// worker just before classifying. auditReduce compares against the
	// shard's current epoch to detect that an update published between
	// classify and audit — the owner-map cross-check is skipped for
	// such stale rounds (same suppression the shadow applies), because
	// comparing time-T results against a time-T+δ owner map would
	// report churn as corruption.
	epochs []uint64 // indexed by shard ID
	wg     sync.WaitGroup
	hdr1   [1]rules.Header     // Lookup's single-header batch
	res1   []core.LookupResult // Lookup's reduce output
}

// New builds a cluster of cfg.Shards devices and starts
// cfg.FanWorkers (default 1) fan-out workers per shard. Call Close to
// stop the workers when done.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("cluster: invalid shard count %d", cfg.Shards))
	}
	workers := cfg.FanWorkers
	if workers < 1 {
		workers = 1
	}
	c := &Cluster{
		cfg:   cfg,
		owner: make(map[int]ownedRule),
	}
	c.roundPool.New = func() any {
		return &fanRound{
			results: make([][]core.LookupResult, cfg.Shards),
			epochs:  make([]uint64, cfg.Shards),
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		// The channel is buffered one slot per worker so a dispatcher
		// never blocks behind another round's send when a worker is free.
		s := &shard{id: i, dev: core.NewDevice(cfg.Device), work: make(chan *fanRound, workers)}
		s.dev.SetTraceShard(i)
		c.shards = append(c.shards, s)
		for w := 0; w < workers; w++ {
			go c.worker(s)
		}
	}
	if cfg.Bounds != nil {
		if len(cfg.Bounds) != cfg.Shards-1 {
			panic(fmt.Sprintf("cluster: %d bounds for %d shards", len(cfg.Bounds), cfg.Shards))
		}
		if !sort.IntsAreSorted(cfg.Bounds) {
			panic(fmt.Sprintf("cluster: bounds not ascending: %v", cfg.Bounds))
		}
		c.bounds = append([]int(nil), cfg.Bounds...)
	} else {
		for i := 1; i < cfg.Shards; i++ {
			c.bounds = append(c.bounds, i*65536/cfg.Shards)
		}
	}
	return c
}

// Close stops the fan-out workers and the cluster's background
// machinery. The cluster must be idle; classify after Close panics.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, s := range c.shards {
			close(s.work)
		}
	})
}

// worker is one of a shard's long-lived fan-out goroutines: each
// received round is classified against this shard only, into the
// round's per-shard result slot. The channel receive orders the read
// of the round's headers after the dispatcher's write; the round's
// WaitGroup orders the dispatcher's read of the results after the
// write here. The device path underneath is lock-free, so workers on
// the same shard serving different rounds run in parallel.
//
//catcam:hotpath
func (c *Cluster) worker(s *shard) {
	for r := range s.work {
		// Stamp the epoch BEFORE loading the classify snapshot: if the
		// shard's epoch still equals this stamp at audit time, no
		// publication happened in between, so the snapshot classified
		// against was exactly this epoch's.
		r.epochs[s.id] = s.dev.Epoch()
		var start uint64
		if r.tr != nil {
			start = trace.Nanos()
		}
		r.results[s.id] = s.dev.LookupHeaderBatchTraced(r.tr, r.hdrs, r.results[s.id][:0])
		if r.tr != nil {
			//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
			r.tr.Span(trace.StageShardKernel, -1, s.id, -1, -1, start, 0)
		}
		r.wg.Done()
	}
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard exposes one backing device (stats, invariants, tests).
func (c *Cluster) Shard(i int) *core.Device { return c.shards[i].dev }

// Bounds returns a copy of the interval partition bounds: Shards-1
// ascending priority upper bounds, as Config.Bounds describes them.
// The rebalancer moves them, so two calls may differ.
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

	res, err := c.shards[sh].dev.InsertRule(r)
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
	res, err := c.shards[o.shard].dev.DeleteRule(ruleID)
	if err == nil {
		c.routeMu.Lock()
		delete(c.owner, ruleID)
		c.routeMu.Unlock()
	}
	return res, err
}

// ModifyRule replaces a rule with a new version keeping its ID; no
// reader ever sees the rule absent. When the new priority stays inside
// the interval of the shard that holds the old version, the shard's
// Device.ModifyRule publishes the change as one epoch. A modify that
// crosses shards takes the migration epoch (mu.Lock, as a rebalance
// batch does): insert into the destination shard, delete from the
// source, move the owner record, with classify excluded until all
// three are done. A destination that cannot take the new version
// returns its error with the old version still installed and owned.
// Cycle costs of both phases are reported together, mirroring
// Device.ModifyRule.
func (c *Cluster) ModifyRule(ruleID int, newRule rules.Rule) (core.UpdateResult, error) {
	if newRule.ID != ruleID {
		return core.UpdateResult{}, fmt.Errorf("cluster: modify must keep rule ID %d, got %d", ruleID, newRule.ID)
	}
	if newRule.ExpansionCount() == 0 {
		// Rejected before either path deletes the old version.
		return core.UpdateResult{}, fmt.Errorf("cluster: modify of rule %d: %w", ruleID, core.ErrEmptyRule)
	}
	// mu.RLock keeps the rebalancer from moving the rule between the
	// routing read and the device call.
	c.mu.RLock()
	res, crosses, err := c.modify(ruleID, newRule, false)
	c.mu.RUnlock()
	if crosses {
		// Routing is read again under the write lock: the rebalancer
		// may have moved the rule or the bound since.
		c.mu.Lock()
		res, _, err = c.modify(ruleID, newRule, true)
		c.mu.Unlock()
	}
	return res, err
}

// modify runs one modify with mu held. Crossing shards needs the write
// side: with only the read side held (exclusive false) such a modify
// touches nothing and reports crosses.
func (c *Cluster) modify(ruleID int, newRule rules.Rule, exclusive bool) (res core.UpdateResult, crosses bool, err error) {
	c.routeMu.Lock()
	o, ok := c.owner[ruleID]
	dst := c.routeLocked(newRule.Priority)
	c.routeMu.Unlock()
	switch {
	case !ok:
		return res, false, core.ErrNotFound
	case dst != o.shard && !exclusive:
		return res, true, nil
	case dst == o.shard:
		res, err = c.shards[dst].dev.ModifyRule(ruleID, newRule)
	default:
		if res, err = c.move(newRule, o.shard, dst); err != nil {
			return res, false, err // the old version is still installed and owned
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
	return res, false, err
}

// Lookup classifies one header and returns the winning action.
//
//catcam:hotpath
func (c *Cluster) Lookup(h rules.Header) (int, bool) {
	r := c.getRound()
	r.hdr1[0] = h
	res := c.lookupBatch(r, r.hdr1[:], r.res1[:0])
	r.res1 = res[:0]
	e, ok := res[0].Entry, res[0].OK
	c.putRound(r)
	if !ok {
		return 0, false
	}
	return e.Action, true
}

// getRound checks a fan-out working set out of the pool.
//
//catcam:hotpath
func (c *Cluster) getRound() *fanRound {
	return c.roundPool.Get().(*fanRound) //catcam:allow alloc "sync.Pool checkout; allocates only while the pool is cold"
}

// putRound returns a round to the pool for the next classify call.
//
//catcam:hotpath
func (c *Cluster) putRound(r *fanRound) {
	r.hdrs = nil
	r.tr = nil
	c.roundPool.Put(r) //catcam:allow alloc "sync.Pool return; the checkin itself does not allocate"
}

// LookupHeaderBatch is LookupHeaderBatchTraced without a trace.
//
//catcam:hotpath
func (c *Cluster) LookupHeaderBatch(hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	return c.LookupHeaderBatchTraced(nil, hs, dst)
}

// LookupHeaderBatchTraced classifies headers through the whole cluster:
// the batch fans out to every shard in parallel (each worker classifies
// against its own device, lock-free, with pooled scratch), then the
// arbiter reduces the per-shard winners to one result per header,
// appended to dst in input order. Concurrent batches proceed
// independently — each checks its own fanRound out of the pool. With a
// reused dst the steady-state path allocates nothing.
//
// A sampled batch's tr (nil otherwise) receives a fanout_dispatch span
// around the whole fan-out (wake every worker, wait for the last), one
// shard_kernel span per shard (recorded by that shard's worker, on the
// shard's own timeline lane), the per-shard device/sram spans beneath
// them, and an arbiter_merge span around the reduce loop.
//
//catcam:hotpath
func (c *Cluster) LookupHeaderBatchTraced(tr *trace.Trace, hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	if len(hs) == 0 {
		return dst
	}
	r := c.getRound()
	r.tr = tr
	dst = c.lookupBatch(r, hs, dst)
	c.putRound(r)
	return dst
}

// lookupBatch runs one fan-out round through the round's own working
// set. Takes only mu.RLock (the migration epoch) — concurrent rounds
// do not serialize against each other.
func (c *Cluster) lookupBatch(r *fanRound, hs []rules.Header, dst []core.LookupResult) []core.LookupResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var start time.Time
	t := c.tel
	if t != nil {
		start = time.Now()
	}
	tr := r.tr
	var dispatchStart uint64
	if tr != nil {
		dispatchStart = trace.Nanos()
	}
	r.hdrs = hs
	r.wg.Add(len(c.shards))
	for _, s := range c.shards {
		s.work <- r
	}
	r.wg.Wait()
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
// reported it. Cold path; runs under mu.RLock with the fan-out results
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
	// shard has not published a new epoch since its worker classified:
	// a concurrent delete removes the owner record after the round
	// answered, and flagging that window would report churn as
	// corruption. Seqlock order: the worker stamped the epoch before it
	// classified, the record is read here, and the stamp is validated
	// only after that read. DeleteRule publishes before it drops the
	// record, so a record it removed is never seen under a stamp that
	// still validates; checking before the read leaves that window open.
	id := r.results[win][i].Entry.Rank.RuleID
	c.routeMu.Lock()
	o, ok := c.owner[id]
	c.routeMu.Unlock()
	if c.shards[win].dev.Epoch() != r.epochs[win] {
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
		n += s.dev.Len()
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
		e += s.dev.Epoch()
	}
	return e
}

// ShardEntries returns per-shard stored entry counts, index-aligned
// with Shard.
func (c *Cluster) ShardEntries() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.dev.Len()
	}
	return out
}

// Stats aggregates device statistics across the shards.
func (c *Cluster) Stats() core.Stats {
	var total core.Stats
	for _, s := range c.shards {
		st := s.dev.Stats()
		total.Lookups += st.Lookups
		total.Inserts += st.Inserts
		total.Deletes += st.Deletes
		total.Reallocations += st.Reallocations
		total.DirectInserts += st.DirectInserts
		total.ReallocInserts += st.ReallocInserts
		total.UpdateCycles += st.UpdateCycles
		total.LookupCycles += st.LookupCycles
		total.FreshSubtables += st.FreshSubtables
	}
	return total
}

// ResetStats zeroes every shard's statistics and telemetry, then runs
// the cluster-level reset observers (see OnStatsReset).
func (c *Cluster) ResetStats() {
	for _, s := range c.shards {
		s.dev.ResetStats()
	}
	c.hookMu.Lock()
	hooks := append([]func(){}, c.resetHooks...)
	c.hookMu.Unlock()
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
		if err := s.dev.CheckInvariant(); err != nil {
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
