package ingress

import (
	"catcam/internal/core"
	"catcam/internal/rules"
)

// FlowCache is the exact-match CAM that fronts the ternary array: a
// small 2-way set-associative table keyed on the full 5-tuple, caching
// the classification decision for flows the worker has already seen.
// Under Zipf-distributed traffic the handful of heavy flows pin the
// cache and the ternary slow path only sees the long tail, which is
// exactly the fast-path/slow-path split real switch pipelines make
// between their exact-match and TCAM stages.
//
// Each worker owns one private FlowCache, so no operation synchronizes:
// run-to-completion scheduling plus flow-affinity dispatch (one flow
// always hashes to one worker) make a per-worker cache both coherent
// and contention-free.
//
// Correctness under rule churn is by epoch stamping, not by callbacks:
// every entry records the backend epoch (see core.Device.Epoch) current
// when it was filled, and Lookup hits at once when the stored stamp
// equals the epoch the worker loaded at the start of the burst. An
// entry with an older stamp is revalidated, not flushed, when the
// backend is a single device: the entry also keeps its winning rule's
// priority and ID, and core.Device.Revalidate reads the device's change
// log for the epochs since the stamp. The entry hits, restamped, unless
// one of those changes removed its winner, added a rule that matches
// the flow and does not lose to the winner, or has no rule-level form,
// or the stamp is older than the log reaches. Any other backend (a
// cluster, a flowtable pipeline, a wrapper) gives no change log, and
// there a stale stamp misses and refills through the ternary array.
// Invalidation is therefore O(0) on the update path — the epoch
// increment and one change record the publication already writes —
// and lazy on the lookup path, mirroring the paper's separation of
// constant-time alteration from the lookup pipeline.
//
//catcam:scratch
type FlowCache struct {
	sets    uint64
	entries []flowEntry // 2*sets entries; set i occupies [2i, 2i+1]
	// dev revalidates entries with an older stamp; nil flushes them.
	dev   *core.Device
	stale uint64 // the misses on an entry with an older stamp
}

// flowEntry is one cached decision. ok distinguishes an empty slot from
// a cached "no rule matched" verdict — negative results are cacheable
// too, and invalidate the same way. prio and id are the winning rule's
// priority and ID when ranked is set; only a ranked entry can be
// revalidated.
type flowEntry struct {
	hdr      rules.Header
	epoch    uint64
	action   int32
	prio, id int32
	ok       bool
	live     bool
	ranked   bool
}

// setWinner records the winning rule's rank, when it fits in 32 bits.
func (e *flowEntry) setWinner(r core.Rank) {
	e.prio, e.id = int32(r.Priority), int32(r.RuleID)
	e.ranked = int(e.prio) == r.Priority && int(e.id) == r.RuleID
}

// NewFlowCache builds a cache holding capacity decisions, rounded up so
// the set count is a power of two (minimum one set of two ways).
// Capacity 0 returns nil; a nil *FlowCache is valid and never hits, so
// "flow cache off" is the zero configuration rather than a branch in
// the worker.
func NewFlowCache(capacity int) *FlowCache {
	if capacity <= 0 {
		return nil
	}
	sets := uint64(1)
	for sets*2 < uint64(capacity) {
		sets <<= 1
	}
	return &FlowCache{sets: sets, entries: make([]flowEntry, 2*sets)}
}

// Cap returns the cache capacity in decisions (0 for nil).
func (c *FlowCache) Cap() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// StaleMisses returns how many misses found an entry for the flow
// stamped at an older epoch that could not be revalidated; the rest
// are cold or capacity misses (0 for nil). Private to the owning
// worker, like the cache itself.
func (c *FlowCache) StaleMisses() uint64 {
	if c == nil {
		return 0
	}
	return c.stale
}

// flowHash mixes the 5-tuple into 64 bits (a SplitMix64-style finisher
// over the packed header words). Used both for set selection here and
// for flow-affinity worker dispatch, so the same flow always lands on
// the same worker's private cache.
//
//catcam:hotpath
func flowHash(h rules.Header) uint64 {
	x := uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	x ^= (uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Proto)) * 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// Lookup returns the cached decision for h, valid at the given epoch: a
// hit requires an exact 5-tuple match and a stamp equal to epoch, or
// one the cache revalidates up to epoch (see FlowCache). A hit in the
// second way promotes the entry (in-set LRU). Allocation-free;
// nil-safe (never hits).
//
//catcam:hotpath
func (c *FlowCache) Lookup(h rules.Header, epoch uint64) (action int32, matched, hit bool) {
	if c == nil {
		return 0, false, false
	}
	i := int(flowHash(h)&(c.sets-1)) * 2
	e0 := &c.entries[i]
	if e0.live && e0.epoch == epoch && e0.hdr == h {
		return e0.action, e0.ok, true
	}
	e := e0
	if !(e.live && e.hdr == h) {
		if e = &c.entries[i+1]; !(e.live && e.hdr == h) {
			return 0, false, false
		}
	}
	if e.epoch != epoch && !c.revalidate(e, epoch) {
		c.stale++
		return 0, false, false
	}
	if e != e0 {
		*e0, *e = *e, *e0
	}
	return e0.action, e0.ok, true
}

// revalidate asks the device whether e's decision still holds at
// epoch, and restamps e when it does.
//
//catcam:hotpath
func (c *FlowCache) revalidate(e *flowEntry, epoch uint64) bool {
	if c.dev == nil || !e.ranked ||
		!c.dev.Revalidate(e.hdr, e.epoch, epoch, core.Rank{Priority: int(e.prio), RuleID: int(e.id)}, e.ok) {
		return false
	}
	e.epoch = epoch
	return true
}

// Insert caches the decision for h stamped with epoch. The new entry
// takes the most-recently-used way; the previous occupant is demoted
// and the set's LRU way is evicted. Inserting over an existing entry
// for the same flow (the refill after a stale miss) overwrites it in
// place. An entry inserted here carries no winner, so it is never
// revalidated. Allocation-free; nil-safe (no-op).
//
//catcam:hotpath
func (c *FlowCache) Insert(h rules.Header, epoch uint64, action int32, matched bool) {
	c.insert(flowEntry{hdr: h, epoch: epoch, action: action, ok: matched})
}

// insert is Insert of a whole entry.
//
//catcam:hotpath
func (c *FlowCache) insert(n flowEntry) {
	if c == nil {
		return
	}
	n.live = true
	i := int(flowHash(n.hdr)&(c.sets-1)) * 2
	e0 := &c.entries[i]
	e1 := &c.entries[i+1]
	if e1.live && e1.hdr == n.hdr {
		// Refill of the way-1 resident: promote while overwriting so the
		// set never holds two entries for one flow.
		*e1 = *e0
	} else if !(e0.live && e0.hdr == n.hdr) {
		*e1 = *e0 // demote MRU, evicting the old LRU
	}
	*e0 = n
}
