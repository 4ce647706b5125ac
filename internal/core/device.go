package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
	tracepkg "catcam/internal/trace"
)

// ErrFull is returned when no subtable can accommodate an insertion.
var ErrFull = errors.New("core: device full")

// ErrNotFound is returned when a delete names an unknown rule.
var ErrNotFound = errors.New("core: rule not present")

// ErrEmptyRule is returned when an insert or modify carries a rule that
// encodes to no entries (a port range with Lo > Hi): storing nothing
// and reporting success would leave the caller's rule store naming a
// rule the device does not hold.
var ErrEmptyRule = errors.New("core: rule encodes to no entries")

// Config sizes a CATCAM device.
type Config struct {
	// Subtables is the number of subtables (256 in the prototype).
	Subtables int
	// SubtableCapacity is the entry count per subtable (256).
	SubtableCapacity int
	// KeyWidth is the search-key width in ternary bits; it must be a
	// multiple of the match subarray width (160). The prototype uses
	// 640 (four 160-bit subarrays searched in parallel).
	KeyWidth int
	// FrequencyMHz is the operating clock (500 in the prototype).
	FrequencyMHz float64
	// ChainedReallocation is an ablation switch (§IV-B scenario 3): when
	// set, an eviction whose successor subtable is also full cascades
	// into it — evicting *its* maximum onward — instead of assigning a
	// fresh subtable. This reproduces the "reallocation chain" the
	// paper's design explicitly breaks; update cost becomes O(k) in the
	// subtable count. Off in the paper's design.
	ChainedReallocation bool
}

// Validate reports whether the configuration describes a buildable
// device: positive geometry, at most 65,535 slots a subtable (a flush
// counts pending entries in 16 bits), and a key width that is zero
// (one subarray) or a positive multiple of the match subarray width.
// NewDevice panics with this error; callers that take a Config from
// outside the program check it first.
func (c Config) Validate() error {
	if c.Subtables <= 0 || c.SubtableCapacity <= 0 || c.SubtableCapacity > math.MaxUint16 {
		return fmt.Errorf("core: invalid config %+v", c)
	}
	if cols := sram.MatchMatrixParams().Cols; c.KeyWidth < 0 || c.KeyWidth%cols != 0 {
		return fmt.Errorf("core: key width %d not a multiple of subarray width %d", c.KeyWidth, cols)
	}
	return nil
}

// Prototype returns the paper's system configuration (§VII, Table II):
// (160b × 4) × 256 × 256 at 500 MHz — 64K entries, 40 Mb.
func Prototype() Config {
	return Config{Subtables: 256, SubtableCapacity: 256, KeyWidth: 640, FrequencyMHz: 500}
}

// Compact returns a single-subarray configuration (160-bit keys) that
// holds the same entry count but searches one subarray per subtable —
// used by the update-cost experiments where key width is irrelevant.
func Compact() Config {
	return Config{Subtables: 256, SubtableCapacity: 256, KeyWidth: 160, FrequencyMHz: 500}
}

// UpdateClass distinguishes the paper's cycle classes (§VIII-A).
type UpdateClass int

// Update classes with their cycle costs.
const (
	// ClassInsertDirect: rule written into a free slot of its target
	// subtable (or a freshly assigned one): 3 cycles.
	ClassInsertDirect UpdateClass = iota
	// ClassInsertRealloc: target full, one rule evicted and reinserted
	// elsewhere: 5 cycles.
	ClassInsertRealloc
	// ClassDelete: entry invalidation: 1 cycle.
	ClassDelete
)

// Cycles returns the cycle cost of the class.
func (c UpdateClass) Cycles() uint64 {
	switch c {
	case ClassInsertDirect:
		return 3
	case ClassInsertRealloc:
		return 5
	case ClassDelete:
		return 1
	}
	return 0
}

// Stats aggregates device activity.
type Stats struct {
	Lookups        uint64
	Inserts        uint64
	Deletes        uint64
	Reallocations  uint64 // rules moved between subtables
	DirectInserts  uint64 // 3-cycle inserts
	ReallocInserts uint64 // 5-cycle inserts
	UpdateCycles   uint64
	LookupCycles   uint64 // pipelined: 1/lookup after 2-cycle fill
	FreshSubtables uint64 // subtables assigned at runtime
}

// Add adds o's counters to s: a cluster's or pipeline's statistics are
// the sums of its devices'.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Reallocations += o.Reallocations
	s.DirectInserts += o.DirectInserts
	s.ReallocInserts += o.ReallocInserts
	s.UpdateCycles += o.UpdateCycles
	s.LookupCycles += o.LookupCycles
	s.FreshSubtables += o.FreshSubtables
}

// location records where an entry lives.
type location struct {
	st   int
	slot int
}

// Device is a complete CATCAM instance.
//
// All exported methods are safe for concurrent use. Updates serialize
// on one mutex, taken in one place: InsertRule, InsertWord, DeleteRule
// and ModifyRule all run through the update bracket (Device.update),
// which publishes exactly one epoch per request (DESIGN.md §17). The
// classify path (Lookup, LookupBatch, LookupHeaderBatch,
// LookupHeaderBatchTraced, LookupHeaderBatchAt, and Revalidate over
// the change log) acquires no lock at all — it loads the current epoch
// snapshot (d.snap) with one atomic pointer read, or reads the View
// LookupHeaderBatchAt is handed, and traverses the frozen
// structure with per-goroutine pooled scratch, so concurrent lookups
// scale with cores. The hot path
// performs no allocation at steady state. See snapshot.go for the
// publication scheme and DESIGN.md §13 for why torn reads are
// impossible.
type Device struct {
	mu     sync.Mutex
	cfg    Config      // immutable after NewDevice
	subs   []*Subtable //catcam:guarded-by mu
	global *sram.Array //catcam:guarded-by mu

	// snap is the published read snapshot: built and stored only on the
	// update side (under mu, by publishLocked), loaded freely by the
	// lock-free classify path.
	snap atomic.Pointer[snapshot] //catcam:write-guarded-by mu
	// touched lists the subtables whose arrays or maximum changed since
	// the last publish, possibly more than once; publishLocked
	// re-materializes exactly these views and empties it.
	touched []int //catcam:guarded-by mu
	// span is one past the highest active subtable ID as of the last
	// publish: how far the published view table reaches.
	span int //catcam:guarded-by mu
	// globalDirty marks the global relation matrix, and with it the
	// interval order, changed (subtable assignment/release) since the
	// last publish.
	globalDirty bool //catcam:guarded-by mu
	// relRow and relCol are the row and column a subtable assignment or
	// release writes into the global matrix, reused across them
	// (sram.Array copies what it is handed).
	relRow, relCol *bitvec.Vector //catcam:guarded-by mu
	// pending is the rule-level change of the update in flight, which
	// publishLocked logs for the epoch it publishes and then clears.
	pending changeRecord //catcam:guarded-by mu
	// log is the change log (changelog.go): written only by
	// publishLocked, read lock-free by Revalidate.
	log changeLog

	// readPool holds per-goroutine readScratch working sets for the
	// lock-free classify path.
	readPool sync.Pool
	// rdMatch/rdPrio/rdGlobal accumulate array activity generated on
	// the lock-free path (the live arrays' own counters are only
	// mutated under mu); ArrayStats merges both sides.
	rdMatch  atomicArrayStats
	rdPrio   atomicArrayStats
	rdGlobal atomicArrayStats

	// meta is the metadata cache (§VI): per-subtable activity, maximum
	// rank, and the rule locator.
	active []bool //catcam:guarded-by mu
	maxOf  []Rank //catcam:guarded-by mu
	// order lists active subtable IDs sorted ascending by max rank —
	// the interval sequence. The firmware-free scheduler walks it.
	order []int //catcam:guarded-by mu
	// freeSubs holds inactive subtable IDs available for assignment.
	freeSubs []int //catcam:guarded-by mu
	// locs is the rule locator: rule ID → that rule's stored entries in
	// seq order, so a delete walks its own entries and nothing else.
	locs map[int][]entryLoc //catcam:guarded-by mu
	// entries counts the stored entries across locs.
	entries int //catcam:guarded-by mu
	// seqCounter makes ranks unique across expansion entries.
	seqCounter int //catcam:guarded-by mu

	// sel is the bit-selection filter's key positions, shared by every
	// match array and by the snapshots published since they were
	// chosen; selAt is d.entries at that choice (see rechooseFilter).
	sel   *sram.Selection //catcam:guarded-by mu
	selAt int             //catcam:guarded-by mu

	// stats fields are atomic: update-side counters are written only
	// under mu, lookup counters are flushed from read scratches, and
	// Stats() reads everything without taking the lock.
	stats deviceStats
	// churn accumulates epoch-publication and scratch-pool accounting
	// for the state observatory; atomic for lock-free derivation.
	churn epochChurn
	// resetHooks run (under mu) after ResetStats/ResetArrayStats zero
	// the device-side counters; see OnStatsReset.
	resetHooks []func() //catcam:guarded-by mu
	// tel is the attached runtime telemetry; nil until AttachTelemetry.
	tel *deviceTelemetry //catcam:guarded-by mu

	// Flight-recorder instruments (see flightrec.go); all nil until
	// attached, and every hook below is nil-safe. The instruments
	// themselves are internally synchronized, so the pointers are not
	// mutex-guarded once attached.
	aud    *flightrec.Auditor
	shadow *flightrec.Shadow
	// tracer samples update requests (see AttachTracer); trace is the
	// in-flight update's trace (nil when the current update is
	// unsampled). Both are guarded by mu like the update itself.
	tracer *tracepkg.Tracer //catcam:guarded-by mu
	trace  *tracepkg.Trace  //catcam:guarded-by mu

	// trTable and trShard are the flow-table and cluster-shard IDs
	// carried on emitted spans (-1 when the device is not part of one);
	// written under mu, read by lookups via the snapshot. The rest of
	// the span-layer trace context (which batch, which focus key)
	// arrives with the request and rides the read scratch — see
	// LookupHeaderBatchTraced.
	trTable int //catcam:guarded-by mu
	trShard int //catcam:guarded-by mu
}

// entryLoc is one stored entry of a rule: its expansion sequence number
// and where it lives.
type entryLoc struct {
	seq int
	location
}

// NewDevice builds a CATCAM device from the configuration, using the
// paper's Table I array parameters scaled to the configured geometry.
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.FrequencyMHz == 0 {
		cfg.FrequencyMHz = 500
	}
	matchP := sram.MatchMatrixParams()
	matchP.Rows = cfg.SubtableCapacity
	if cfg.KeyWidth == 0 {
		cfg.KeyWidth = matchP.Cols
	}
	prioP := sram.PriorityMatrixParams()
	prioP.Rows, prioP.Cols = cfg.SubtableCapacity, cfg.SubtableCapacity

	globalP := sram.PriorityMatrixParams()
	globalP.Rows, globalP.Cols = cfg.Subtables, cfg.Subtables

	d := &Device{
		cfg:     cfg,
		subs:    make([]*Subtable, cfg.Subtables),
		global:  sram.NewArray(globalP),
		active:  make([]bool, cfg.Subtables),
		maxOf:   make([]Rank, cfg.Subtables),
		relRow:  bitvec.New(cfg.Subtables),
		relCol:  bitvec.New(cfg.Subtables),
		locs:    make(map[int][]entryLoc),
		trTable: -1,
		trShard: -1,
	}
	d.readPool.New = func() any { return d.newReadScratch() }
	d.sel = sram.SelectPositions(cfg.KeyWidth, nil)
	scratch := newFlushScratch(cfg.SubtableCapacity)
	for i := range d.subs {
		d.subs[i] = NewSubtable(i, cfg.SubtableCapacity, cfg.KeyWidth, matchP, prioP)
		d.subs[i].match.SetSelection(d.sel)
		d.subs[i].scratch = scratch
	}
	for i := cfg.Subtables - 1; i >= 0; i-- {
		d.freeSubs = append(d.freeSubs, i)
	}
	d.mu.Lock()
	d.publishLocked() // epoch 0: the empty device
	d.mu.Unlock()
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a copy of the accumulated statistics. Served entirely
// from atomics — monitoring never contends with classify or updates.
func (d *Device) Stats() Stats {
	return d.stats.snapshot()
}

// ResetStats zeroes device statistics (array stats are separate; see
// ArrayStats) and any attached telemetry, so a benchmark warmup phase
// does not pollute reported quantiles. Safe to call while lookups are
// in flight on other goroutines; in-flight batches may flush their
// batch-local counts after the reset.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.reset()
	d.churn.reset()
	d.resetTelemetry()
	for _, fn := range d.resetHooks {
		fn()
	}
}

// Len returns the number of stored entries (post range expansion), as
// of the last published epoch. Served from the snapshot, no lock.
func (d *Device) Len() int {
	return d.snap.Load().count
}

// CapacityEntries returns total entry slots.
func (d *Device) CapacityEntries() int { return d.cfg.Subtables * d.cfg.SubtableCapacity }

// ActiveSubtables returns the number of subtables in use, as of the
// last published epoch. Served from the snapshot, no lock.
func (d *Device) ActiveSubtables() int {
	return len(d.snap.Load().order)
}

// CyclesToNanos converts cycles to nanoseconds at the configured clock.
func (d *Device) CyclesToNanos(cycles uint64) float64 {
	return float64(cycles) * 1e3 / d.cfg.FrequencyMHz
}

// padWord widens a raw ternary word (InsertWord's) to the device key
// width with trailing wildcards; a rule is encoded at the key width.
func (d *Device) padWord(w ternary.Word) ternary.Word {
	if w.Width() == d.cfg.KeyWidth {
		return w
	}
	if w.Width() > d.cfg.KeyWidth {
		panic(fmt.Sprintf("core: word width %d exceeds key width %d", w.Width(), d.cfg.KeyWidth))
	}
	out := ternary.NewWord(d.cfg.KeyWidth)
	out.Slot(0, w)
	return out
}

// SetTraceLabels sets the flow-table and cluster-shard IDs carried on
// every span this device emits, lookup and update alike (-1, the
// default, for a device outside a flowtable or a cluster). The cluster
// and the flowtable pipeline call it once per device at construction.
// Republishes the snapshot so in-flight readers keep their old labels
// and new readers see the new ones.
func (d *Device) SetTraceLabels(table, shard int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trTable, d.trShard = table, shard
	d.publishLocked()
}

// LookupResult is one LookupBatch outcome.
type LookupResult struct {
	Entry Entry
	OK    bool
}

// LookupBatch classifies keys in order, appending one result per key
// to dst and returning it. Each key is one pipelined lookup (§VI): (1)
// the key is broadcast to every active subtable's match matrix; (2)
// the global match vector — one bit per subtable with any local match
// — traverses the global priority matrix; (3) the chosen subtable's
// local priority matrix reduces its match vector to the report vector.
// Amortized one cycle per lookup at full pipeline. Passing a reused
// dst[:0] keeps the whole call allocation-free at steady state. The
// epoch snapshot is loaded once and the scratch checked out once for
// the batch, which amortizes the pool round-trip and stats flush across
// high-rate traffic the way the hardware pipeline amortizes its fill
// latency; concurrent batches proceed in parallel, never serializing on
// a lock.
//
// Every key must be exactly the device's key width, as
// rules.EncodeHeaderInto writes it at that width, and a key of any
// other width panics: a narrower key zero-padded would leave the port
// predicate columns 0 and silently miss every predicate row.
//
//catcam:hotpath
func (d *Device) LookupBatch(keys []ternary.Key, dst []LookupResult) []LookupResult {
	s := d.snap.Load()
	sc := d.getScratch()
	for _, k := range keys {
		if k.Width() != d.cfg.KeyWidth {
			panic(fmt.Sprintf("core: key width %d is not the device width %d", k.Width(), d.cfg.KeyWidth))
		}
		e, _, ok := s.lookup(sc, k)
		dst = append(dst, LookupResult{Entry: e, OK: ok})
	}
	d.putScratch(sc)
	return dst
}

// LookupHeaderBatch is LookupHeaderBatchTraced without a trace.
//
//catcam:hotpath
func (d *Device) LookupHeaderBatch(hs []rules.Header, dst []LookupResult) []LookupResult {
	return d.LookupHeaderBatchTraced(nil, hs, dst)
}

// LookupHeaderBatchTraced is LookupHeaderBatchAt against the published
// view.
//
//catcam:hotpath
func (d *Device) LookupHeaderBatchTraced(tr *tracepkg.Trace, hs []rules.Header, dst []LookupResult) []LookupResult {
	return d.LookupHeaderBatchAt(d.View(), tr, hs, dst)
}

// View is one published epoch of a device as an opaque, immutable read
// handle. A composite that must read several devices as of one state
// (cluster's cut) holds their views and classifies against them.
//
//catcam:snapshot
type View struct{ s *snapshot }

// View returns the published epoch. Lock-free: one atomic load.
func (d *Device) View() View { return View{d.snap.Load()} }

// LookupHeaderBatchAt is LookupBatch over packet headers against view
// v, one of this device's, the one header classify loop: each header is
// encoded straight into the scratch's device-wide key and classified,
// with one result appended to dst per header. Allocates nothing when
// dst has capacity; safe for any number of concurrent callers.
//
// A sampled batch's tr (nil otherwise) receives, per key, a
// device_lookup span carrying the winning subtable and the modeled
// cycle cost and, for the batch's focus key (tr.Focus(), default key
// 0), one sram_kernel span per subtable the host searched (none for
// the subtables the filter skips), emitted inside snapshot.lookup from
// the trace context the scratch carries. The spans ride the same epoch
// snapshot as the answers they annotate, so a trace never mixes state
// from two epochs.
//
//catcam:hotpath
func (d *Device) LookupHeaderBatchAt(v View, tr *tracepkg.Trace, hs []rules.Header, dst []LookupResult) []LookupResult {
	s := v.s
	sc := d.getScratch()
	sc.tr, sc.focus = tr, tr.Focus()
	for i, h := range hs {
		var start uint64
		if tr != nil {
			start = tracepkg.Nanos()
			sc.keyIdx = i
		}
		rules.EncodeHeaderInto(&sc.key, h)
		e, sub, ok := s.lookup(sc, sc.key)
		if tr != nil {
			//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
			tr.Span(tracepkg.StageDeviceLookup, s.trTable, s.trShard, sub, i, start, 1) // one pipelined cycle per lookup
		}
		if s.shadow.Sample() {
			s.shadow.ObserveEpoch(h, e.Action, ok, s.epoch) //catcam:allow alloc "sampled shadow re-classification; rate-gated off the steady-state path"
		}
		dst = append(dst, LookupResult{Entry: e, OK: ok})
	}
	d.putScratch(sc)
	return dst
}

// Lookup classifies a packet header and returns the winning action.
// Lock-free: a LookupHeaderBatch of one.
//
//catcam:hotpath
func (d *Device) Lookup(h rules.Header) (int, bool) {
	hs := [1]rules.Header{h}
	var res [1]LookupResult
	r := d.LookupHeaderBatchTraced(nil, hs[:], res[:0])[0]
	if !r.OK {
		return 0, false
	}
	return r.Entry.Action, true
}

// UpdateResult describes the cost of one update request.
type UpdateResult struct {
	Class       UpdateClass
	Cycles      uint64
	Reallocated int // entries moved between subtables (0 or 1 per entry)
	FreshTables int // subtables assigned during this update
	Subtable    int // subtable the (last) entry landed in; -1 for deletes
}

// updateOp describes one update request to the bracket: a plain value
// whose fields the bracket switches on, so a request allocates nothing.
type updateOp struct {
	name  string         // the update trace's op name
	kind  opKind         // the request's per-op telemetry series
	del   bool           // delete rule.ID's entries stored before the request, after storing words
	rule  rules.Rule     // the ID; for a storing request also priority, action and body
	words []ternary.Word // the entries to store, encoded at the key width before the lock; nil for a delete
	raw   bool           // words have no rule-level form the shadow could mirror
}

// update is the one update bracket; every alteration of the table goes
// through it. It takes the device lock, pauses shadow comparisons, opens
// the (sampled) update trace, runs the insert body and then the delete
// body as the request asks — an insert or a delete is one of them, a
// modify is both (§III-C) — mirrors the change into the shadow and the
// change log's pending record, publishes exactly one epoch (the trace's
// publish step), reports to telemetry, and finishes the trace with the
// request's total modelled cycles. A modify deletes the entries stored
// before the request (seq below first) only once its new version fits,
// so an update that returns an error leaves the rule set as it was.
func (d *Device) update(op updateOp) (UpdateResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shadow.BeginEpoch()
	id := op.rule.ID
	d.trace = d.tracer.StartUpdate(op.name, id, d.trTable, d.trShard)
	res := UpdateResult{Class: ClassDelete, Subtable: -1} // a delete's; the insert body's replaces it
	var err error
	first := d.seqCounter
	if op.del && len(d.locs[id]) == 0 {
		err = ErrNotFound
	}
	if err == nil && op.words != nil {
		res, err = d.insertRule(op.rule, op.words)
	}
	if err == nil && op.del {
		res.Cycles += d.deleteSeqs(id, 0, first) // a modify reports both phases together
		d.shadow.OnDelete(id)
		d.pending.remove(id)
	}
	if err == nil && op.raw {
		d.shadow.Desync("raw word insert bypasses the rule-level mirror")
		d.pending.opaque()
	} else if err == nil && op.words != nil {
		d.shadow.OnInsert(op.rule)
		d.pending.add(op.rule)
	}
	d.publishLocked()
	d.observeOp(op.kind, res, err)
	d.tracer.FinishUpdate(d.trace, res.Cycles, err)
	d.trace = nil
	return res, err
}

// InsertRule inserts all range-expansion entries of r. On failure the
// already-inserted entries of this rule are rolled back and ErrFull is
// returned. A rule with no entries is rejected with ErrEmptyRule before
// any state is touched.
func (d *Device) InsertRule(r rules.Rule) (UpdateResult, error) {
	words := r.EncodeWidth(d.cfg.KeyWidth)
	if len(words) == 0 {
		return UpdateResult{}, fmt.Errorf("%w: rule %d", ErrEmptyRule, r.ID)
	}
	return d.update(updateOp{name: "insert", kind: opInsert, rule: r, words: words})
}

// InsertWord inserts one pre-encoded ternary entry — the path a
// programmable-pipeline front end (e.g. a dRMT key extractor, see
// internal/phv) uses when rules are authored as field specs rather than
// 5-tuples. The word is padded to the device key width; ruleID is the
// handle for DeleteRule.
func (d *Device) InsertWord(w ternary.Word, priority, ruleID, action int) (UpdateResult, error) {
	words := [1]ternary.Word{d.padWord(w)}
	return d.update(updateOp{name: "insert_word", kind: opInsert, words: words[:], raw: true,
		rule: rules.Rule{ID: ruleID, Priority: priority, Action: action}})
}

// DeleteRule removes every entry of the rule.
func (d *Device) DeleteRule(ruleID int) (UpdateResult, error) {
	return d.update(updateOp{name: "delete", kind: opDelete, del: true, rule: rules.Rule{ID: ruleID}})
}

// ModifyRule replaces a rule with a new version, per §III-C:
// "Modification can be processed by deleting the original rule then
// inserting its new version." The new rule keeps the given ID; cycle
// costs of both phases are reported together. Both phases run inside
// one update bracket and publish as one epoch, so no reader sees the
// rule absent. The new version is stored before the old one is
// deleted, so it needs room beside the old entries; ErrEmptyRule,
// ErrNotFound and ErrFull each leave the old version answering.
func (d *Device) ModifyRule(ruleID int, newRule rules.Rule) (UpdateResult, error) {
	if newRule.ID != ruleID {
		return UpdateResult{}, fmt.Errorf("core: modify must keep rule ID %d, got %d", ruleID, newRule.ID)
	}
	words := newRule.EncodeWidth(d.cfg.KeyWidth)
	if len(words) == 0 {
		return UpdateResult{}, fmt.Errorf("%w: rule %d", ErrEmptyRule, ruleID)
	}
	return d.update(updateOp{name: "modify", kind: opModify, del: true, rule: newRule, words: words})
}

// insertRule is the insert body: it stores words, the (non-empty)
// entries of r at the device key width, rolling all of them back when
// one does not fit.
func (d *Device) insertRule(r rules.Rule, words []ternary.Word) (UpdateResult, error) {
	var total UpdateResult
	if d.locs[r.ID] == nil {
		d.locs[r.ID] = make([]entryLoc, 0, len(words))
	}
	first := d.seqCounter
	for i, w := range words {
		d.trace.NextEntry(i)
		seq := d.seqCounter
		d.seqCounter++
		e := Entry{Word: w, Rank: Rank{Priority: r.Priority, RuleID: r.ID, Seq: seq}, Action: r.Action}
		res, err := d.insertEntry(e)
		d.auditEvictionBound(res)
		if t := d.tel; t != nil && res.Reallocated > 0 {
			t.chainDepth.Observe(uint64(res.Reallocated)) // per entry: 1 in the paper's design
		}
		if err != nil {
			total.Cycles += d.deleteSeqs(r.ID, first, math.MaxInt) // the rollback's deletes, as the trace and counters hold them
			return total, err
		}
		d.account(res)
		total.Cycles += res.Cycles
		total.Reallocated += res.Reallocated
		total.FreshTables += res.FreshTables
		total.Class = res.Class // class of the last entry; callers use Cycles
		total.Subtable = res.Subtable
	}
	return total, nil
}

// deleteSeqs is the one delete body, for a delete, a modify's old
// version and a failed insert's rollback: one 1-cycle invalidation per
// entry of rule ruleID with seq in [lo, hi), in seq order, each dropped
// from the rule's locator record, which goes once it empties. It
// returns the cycles charged.
func (d *Device) deleteSeqs(ruleID, lo, hi int) uint64 {
	locs := d.locs[ruleID]
	i := sort.Search(len(locs), func(k int) bool { return locs[k].seq >= lo })
	j := sort.Search(len(locs), func(k int) bool { return locs[k].seq >= hi })
	for k, l := range locs[i:j] {
		d.trace.NextEntry(k)
		d.deleteEntry(l.location)
	}
	if locs = append(locs[:i], locs[j:]...); len(locs) == 0 {
		delete(d.locs, ruleID)
	} else {
		d.locs[ruleID] = locs
	}
	return uint64(j-i) * ClassDelete.Cycles()
}

// targetSubtable locates the interval containing rank r: the active
// subtable with the smallest max >= r. Returns index into d.order, or
// len(d.order) when r exceeds every max.
func (d *Device) targetSubtable(r Rank) int {
	return sort.Search(len(d.order), func(i int) bool {
		return !d.maxOf[d.order[i]].Less(r) // maxOf >= r
	})
}

// What the scheduler can decide besides a subtable ID.
const (
	freshSubtable = -1 // a subtable assigned from the free pool
	viaScheduler  = -2 // chained ablation: the evicted entry re-enters the scheduler
	noEviction    = -3 // the destination has room
)

// insertEntry is the interval scheduler's datapath (§IV-B): decide, then
// one placement tail — the 3-cycle entry write into a free slot or the
// slot an eviction just vacated, then the evicted maximum's single hop
// (5 cycles in all). It returns the entry's modelled cost uncharged; the
// caller accounts once per request entry. When the current update is
// sampled, each datapath step lands on the trace with its modelled
// cycles; the steps of one entry sum to its cost (overlapped steps —
// scheduling, global-matrix writes, max rederivation — carry 0).
func (d *Device) insertEntry(e Entry) (UpdateResult, error) {
	// Decide, before any mutation: the destination dst (freshSubtable:
	// one slotted into the order at pos), whether e raises the top
	// subtable's max, where a full dst's evicted maximum goes, or full.
	pos := d.targetSubtable(e.Rank)
	dst, evictTo, raise, full := freshSubtable, noEviction, false, false
	switch next := pos + 1; {
	case pos < len(d.order) && !d.subs[d.order[pos]].Full():
		dst = d.order[pos]
	case pos < len(d.order):
		// Target full: evict its maximum, which belongs to the next
		// interval.
		dst = d.order[pos]
		switch {
		case next < len(d.order) && !d.subs[d.order[next]].Full():
			evictTo = d.order[next]
		case d.cfg.ChainedReallocation && next < len(d.order) && d.chainFeasible(next):
			evictTo = viaScheduler
		case len(d.freeSubs) > 0:
			evictTo = freshSubtable
		default:
			full = true
		}
	case pos > 0 && !d.subs[d.order[pos-1]].Full():
		// Rank above every interval: extend the top subtable. Raising
		// the top max is always order-preserving.
		dst, raise = d.order[pos-1], true
	default:
		// ... or assign a fresh subtable above everything.
		full = len(d.freeSubs) == 0
	}
	d.trace.Step(tracepkg.StageSubtableSelect, dst, -1, 0)
	if full {
		return UpdateResult{}, ErrFull
	}

	res := UpdateResult{Class: ClassInsertDirect, Cycles: ClassInsertDirect.Cycles()}
	if dst == freshSubtable {
		dst = d.assignSubtable(e.Rank, pos)
		res.FreshTables = 1
	}
	var slot int
	var evicted Entry
	if evictTo == noEviction {
		slot = d.placeEntry(dst, e)
	} else {
		// The new rule takes the slot of the evicted maximum, which the
		// all-true priority decision locates in 1 cycle.
		st := d.subs[dst]
		slot = st.RecomputeMax()
		d.trace.Step(tracepkg.StageEvictLocate, dst, slot, 1)
		evicted = st.ReadEntry(slot)
		st.Delete(slot)
		d.forgetLoc(evicted.Rank)
		d.placeEntryAt(dst, slot, e)
	}
	d.trace.Step(tracepkg.StageEntryWrite, dst, slot, ClassInsertDirect.Cycles())
	res.Subtable = dst
	if raise {
		d.maxOf[dst] = e.Rank
	}
	if evictTo == noEviction {
		return res, nil
	}

	// The target's max shrinks to its new maximum (1 cycle, all-true
	// trick); the interval boundary moves but the order is unchanged.
	d.refreshMax(dst)
	res.Class, res.Cycles, res.Reallocated = ClassInsertRealloc, ClassInsertRealloc.Cycles(), 1
	switch evictTo {
	case viaScheduler:
		// Ablation path: push the evicted rule through the (full) next
		// subtable, which evicts its own maximum onward — the O(k)
		// reallocation chain, its whole cost folded into this request.
		d.trace.Step(tracepkg.StageEvictionHop, -1, -1, 1)
		sub, err := d.insertEntry(evicted)
		if err != nil {
			panic(fmt.Sprintf("core: reallocation chain from subtable %d lost feasibility: %v", dst, err))
		}
		res.Cycles += sub.Cycles
		res.Reallocated += sub.Reallocated
		res.FreshTables += sub.FreshTables
		return res, nil
	case freshSubtable:
		evictTo = d.assignSubtable(evicted.Rank, pos+1)
		res.FreshTables = 1
	}
	// The evicted rule ranks below everything in the next interval, so
	// landing there moves no max.
	hop := d.placeEntry(evictTo, evicted)
	d.trace.Step(tracepkg.StageEvictionHop, evictTo, hop, 1)
	return res, nil
}

// chainFeasible reports whether a reallocation chain starting at order
// position pos can terminate: some subtable at or beyond pos has room,
// or a fresh subtable is available for the chain's end.
func (d *Device) chainFeasible(pos int) bool {
	if len(d.freeSubs) > 0 {
		return true
	}
	for i := pos; i < len(d.order); i++ {
		if !d.subs[d.order[i]].Full() {
			return true
		}
	}
	return false
}

// account charges one request entry's modelled cost to the device
// counters: the one place insert cycles and counts are charged, so the
// totals are the sums of the results callers were handed. A chain's
// hops are moves of this entry's request, not inserts of their own.
func (d *Device) account(res UpdateResult) {
	d.stats.updateCycles.Add(res.Cycles)
	if res.Class == ClassInsertRealloc {
		d.stats.reallocInserts.Add(1)
	} else {
		d.stats.directInserts.Add(1)
	}
	d.stats.reallocations.Add(uint64(res.Reallocated))
	d.stats.freshSubtables.Add(uint64(res.FreshTables))
}

// placeEntry inserts e into any free slot of subtable id and returns
// the slot it picked.
func (d *Device) placeEntry(id int, e Entry) int {
	slot := d.subs[id].FreeSlot()
	if slot < 0 {
		panic(fmt.Sprintf("core: subtable %d unexpectedly full", id))
	}
	d.placeEntryAt(id, slot, e)
	return slot
}

func (d *Device) placeEntryAt(id, slot int, e Entry) {
	d.subs[id].Insert(slot, e)
	d.touched = append(d.touched, id)
	d.setLoc(e.Rank, location{st: id, slot: slot})
}

// setLoc records where the entry ranked r lives, keeping its rule's
// record in seq order. A new entry carries the highest seq issued so
// far and lands at the end; only an evicted entry being re-placed
// shifts later ones.
func (d *Device) setLoc(r Rank, loc location) {
	locs := append(d.locs[r.RuleID], entryLoc{})
	i := len(locs) - 1
	for ; i > 0 && locs[i-1].seq > r.Seq; i-- {
		locs[i] = locs[i-1]
	}
	locs[i] = entryLoc{seq: r.Seq, location: loc}
	d.locs[r.RuleID] = locs
	d.entries++
}

// forgetLoc drops the entry ranked r (an eviction in flight) from its
// rule's record. The record itself stays, possibly empty, so the
// re-placement that follows reuses its storage.
func (d *Device) forgetLoc(r Rank) {
	locs := d.locs[r.RuleID]
	for i := range locs {
		if locs[i].seq == r.Seq {
			d.locs[r.RuleID] = append(locs[:i], locs[i+1:]...)
			d.entries--
			return
		}
	}
}

// assignSubtable activates a fresh subtable whose interval slots in at
// position pos of the order, with the given initial max rank, and
// updates the global priority matrix (row + column write, overlapped
// with the local update per §VIII-A). The scheduler only decides on a
// fresh subtable when the pool has one.
func (d *Device) assignSubtable(max Rank, pos int) int {
	if len(d.freeSubs) == 0 {
		panic("core: fresh subtable vanished")
	}
	id := d.freeSubs[len(d.freeSubs)-1]
	d.freeSubs = d.freeSubs[:len(d.freeSubs)-1]
	d.active[id] = true
	d.maxOf[id] = max
	d.touched = append(d.touched, id)

	d.order = append(d.order, 0)
	copy(d.order[pos+1:], d.order[pos:])
	d.order[pos] = id

	d.trace.Step(tracepkg.StageFreshSubtable, id, -1, 0)
	d.writeGlobalRelations(id)
	// Overlapped with the local 3-cycle entry write (§VIII-A), so it
	// adds no cycles of its own to the update class.
	d.trace.Step(tracepkg.StageGlobalUpdate, id, -1, 0)
	return id
}

// releaseSubtable deactivates an emptied subtable and clears its global
// relations.
func (d *Device) releaseSubtable(id int) {
	for i, x := range d.order {
		if x == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.active[id] = false
	d.maxOf[id] = Rank{}
	d.freeSubs = append(d.freeSubs, id)
	d.touched = append(d.touched, id)
	// Clear row and column so the matrix matches the metadata exactly.
	d.relRow.Reset()
	d.global.WriteRow(id, d.relRow)
	d.global.WriteColumn(id, d.relRow)
	d.globalDirty = true
}

// writeGlobalRelations writes subtable id's row and column of the
// global priority matrix from the metadata comparisons (the same
// row/column scheme as a rule insert, §IV-A).
func (d *Device) writeGlobalRelations(id int) {
	row, col := d.relRow, d.relCol
	row.Reset()
	col.Reset()
	for _, other := range d.order {
		if other == id {
			continue
		}
		if d.maxOf[other].Less(d.maxOf[id]) {
			row.Set(other)
		} else {
			col.Set(other)
		}
	}
	d.global.WriteRow(id, row)
	d.global.WriteColumn(id, col)
	d.globalDirty = true
}

// refreshMax re-derives subtable id's max after an eviction or a
// deletion of its maximum, releasing the subtable when it emptied.
// Overlapped with the triggering operation's array writes, so the
// trace step carries no cycles.
func (d *Device) refreshMax(id int) {
	slot := d.subs[id].RecomputeMax()
	d.trace.Step(tracepkg.StageMaxRederive, id, slot, 0)
	if slot < 0 {
		d.releaseSubtable(id)
		return
	}
	r, _ := d.subs[id].Rank(slot)
	d.maxOf[id] = r
}

// deleteEntry removes the entry stored at loc (1 cycle); the caller
// drops it from the rule's locator record. If the subtable max was
// deleted the metadata max is re-derived; an emptied subtable returns
// to the free pool.
func (d *Device) deleteEntry(loc location) {
	st := d.subs[loc.st]
	r, _ := st.Rank(loc.slot)
	st.Delete(loc.slot)
	d.entries--
	d.touched = append(d.touched, loc.st)
	d.trace.Step(tracepkg.StageDelete, loc.st, loc.slot, ClassDelete.Cycles())
	d.stats.deletes.Add(1)
	d.stats.updateCycles.Add(ClassDelete.Cycles())
	if r == d.maxOf[loc.st] {
		d.refreshMax(loc.st)
	}
}

// ArrayStats aggregates the SRAM-array statistics across the device:
// all match matrices, all local priority matrices, and the global
// priority matrix — the measured counterpart of the Fig 16 energy
// model.
func (d *Device) ArrayStats() (match, prio, global sram.Stats) {
	d.mu.Lock()
	for _, st := range d.subs {
		m, p := st.Stats()
		match.Add(m)
		prio.Add(p)
	}
	global = d.global.Stats()
	d.mu.Unlock()
	// Fold in the activity generated on the lock-free classify path,
	// which accumulates device-level rather than per-array.
	match.Add(d.rdMatch.load())
	prio.Add(d.rdPrio.load())
	global.Add(d.rdGlobal.load())
	return match, prio, global
}

// ResetArrayStats zeroes every array's counters, the lock-free path's
// accumulators, and any attached telemetry, then republishes so the
// write-pressure stamps riding the epoch snapshot reset with them — a
// structural derivation after the reset sees zeroed pressure, not the
// last epoch's stale stamps.
func (d *Device) ResetArrayStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.subs {
		st.ResetStats()
	}
	d.global.ResetStats()
	d.rdMatch.reset()
	d.rdPrio.reset()
	d.rdGlobal.reset()
	d.resetTelemetry()
	d.touched = append(d.touched, d.order...)
	d.globalDirty = true
	d.publishLocked()
	for _, fn := range d.resetHooks {
		fn()
	}
}

// HostSearches returns how many match-matrix searches the host ran on
// the classify path since creation or the last ResetStats. The model
// charges one search per active subtable per lookup (ArrayStats'
// match Searches); the host runs only those the bit-selection filter
// admits, so HostSearches divided by Stats().Lookups is what the
// filter leaves of the model's searches per lookup.
func (d *Device) HostSearches() uint64 {
	return d.churn.hostSearches.Load()
}

// Occupancy returns stored entries / total slots, as of the last
// published epoch. Served from the snapshot, no lock.
func (d *Device) Occupancy() float64 {
	return float64(d.snap.Load().count) / float64(d.CapacityEntries())
}

// CheckInvariant verifies the scheduler's structural invariants: the
// order is strictly sorted by max rank, every entry's rank lies in its
// subtable's interval, subtable maxes match their contents, the global
// priority matrix encodes the order, every view the last epoch
// published was filtered on that epoch's key positions, and every
// subtable's priority matrix agrees with its stored ranks, and then
// that the last epoch is what a fresh freeze of the live state gives
// (publishedLocked). Test support; the flight recorder's AuditSweep
// runs all but the last check incrementally.
func (d *Device) CheckInvariant() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.globalInvariantLocked(); err != nil {
		return err
	}
	for _, id := range d.order {
		if err := d.subs[id].CheckInvariant(); err != nil {
			return err
		}
	}
	return d.publishedLocked()
}

// publishedLocked holds the last epoch to a fresh freeze of the live
// arrays: its interval order, every active subtable's view (match view,
// priority matrix, metadata, maximum and write stamps) and the global
// view. A publish takes every part no write marked from the previous
// epoch unread (snapshot.go), so a write that skipped its mark shows
// here as a published part that differs from the live one. Caller holds
// d.mu.
func (d *Device) publishedLocked() error {
	s := d.snap.Load()
	if !slices.Equal(s.order, d.order) {
		return fmt.Errorf("core: epoch %d publishes order %v, live %v", s.epoch, s.order, d.order)
	}
	for _, id := range d.order {
		got, want := s.view(id), d.subs[id].snapshotView(nil, d.maxOf[id].Priority)
		for _, part := range []struct {
			name      string
			got, want any
		}{
			{"match view", got.match, want.match},
			{"priority matrix", got.prio, want.prio},
			{"metadata", got.meta, want.meta},
			{"view", *got, *want},
		} {
			if !reflect.DeepEqual(part.got, part.want) {
				return fmt.Errorf("core: epoch %d: subtable %d's published %s differs from a fresh freeze", s.epoch, id, part.name)
			}
		}
	}
	if !reflect.DeepEqual(s.global, d.global.SnapshotView()) {
		return fmt.Errorf("core: epoch %d's global matrix differs from a fresh freeze", s.epoch)
	}
	return nil
}

// globalInvariantLocked verifies the device-level invariants — the
// interval structure, the global matrix encoding, the published views'
// filter positions, and the rule locator — without descending into
// per-subtable priority matrices (the audit sweep checks those
// separately, per subtable). Callers hold d.mu.
func (d *Device) globalInvariantLocked() error {
	for i := 1; i < len(d.order); i++ {
		if !d.maxOf[d.order[i-1]].Less(d.maxOf[d.order[i]]) {
			return fmt.Errorf("core: order not strictly increasing at %d", i)
		}
	}
	for i, id := range d.order {
		st := d.subs[id]
		if st.Empty() {
			return fmt.Errorf("core: active subtable %d empty", id)
		}
		var lower Rank
		hasLower := i > 0
		if hasLower {
			lower = d.maxOf[d.order[i-1]]
		}
		maxSeen := Rank{}
		first := true
		for slot := 0; slot < st.Capacity(); slot++ {
			r, ok := st.Rank(slot)
			if !ok {
				continue
			}
			if hasLower && !lower.Less(r) {
				return fmt.Errorf("core: subtable %d rank %v below interval floor %v", id, r, lower)
			}
			if d.maxOf[id].Less(r) {
				return fmt.Errorf("core: subtable %d rank %v above its max %v", id, r, d.maxOf[id])
			}
			if first || maxSeen.Less(r) {
				maxSeen, first = r, false
			}
		}
		if maxSeen != d.maxOf[id] {
			return fmt.Errorf("core: subtable %d stored max %v != metadata %v", id, maxSeen, d.maxOf[id])
		}
	}
	for i, a := range d.order {
		for j, b := range d.order {
			want := j < i // a beats b iff a's interval is above b's
			if got := d.global.Bit(a, b); got != want {
				return fmt.Errorf("core: global matrix [%d][%d]=%v, want %v", a, b, got, want)
			}
		}
	}
	s := d.snap.Load()
	for _, id := range s.order {
		if sel := s.view(id).match.Selection(); sel != s.sel {
			return fmt.Errorf("core: subtable %d view filtered on %p, epoch %d on %p", id, sel, s.epoch, s.sel)
		}
	}
	stored := 0
	for id, locs := range d.locs {
		for i, l := range locs {
			r, ok := d.subs[l.st].Rank(l.slot)
			if !ok || r.RuleID != id || r.Seq != l.seq {
				return fmt.Errorf("core: locator desync for rule %d seq %d", id, l.seq)
			}
			if i > 0 && locs[i-1].seq >= l.seq {
				return fmt.Errorf("core: locator record of rule %d out of seq order at %d", id, i)
			}
		}
		stored += len(locs)
	}
	if stored != d.entries {
		return fmt.Errorf("core: locator holds %d entries, count says %d", stored, d.entries)
	}
	return nil
}
