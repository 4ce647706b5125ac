package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"catcam/internal/bitvec"
	"catcam/internal/flightrec"
	"catcam/internal/sram"
	"catcam/internal/ternary"
	tracepkg "catcam/internal/trace"
)

// This file implements the epoch-published read snapshot: the lock-free
// classify path.
//
// The scheme is RCU-shaped. Updates — which already serialize on d.mu —
// mutate the live arrays as before, then build an immutable snapshot of
// everything a lookup reads (bit-sliced match planes, per-subtable
// priority rows and rank metadata, the global relation matrix, the
// interval order) and publish it with a single d.snap.Store. Lookups
// load the pointer once and traverse the frozen structure with no lock
// acquisition; a loaded snapshot stays reachable for as long as any
// reader holds it, so the Go runtime's garbage collector is the grace
// period — a retired epoch is reclaimed exactly when its last reader
// drops it, with no hazard-pointer bookkeeping.
//
// Publication is copy-on-write at two levels. An update lists the
// subtables it touched (d.touched), and publishLocked rebuilds only
// those views. The views are held in a chunk table of viewChunkSize
// pointers per chunk; a publish copies the small top level and each
// chunk holding a touched subtable, and shares every other chunk by
// reference with the previous epoch — so an O(1) CATCAM insert pays an
// O(subtable) republish, never an O(table) rebuild, and no walk over
// the active subtables. Within a rebuilt view, every part is shared
// with the previous epoch's view whenever its contents are equal: the
// match view's position order and line slab, each 16-row chunk of the
// priority matrix (sram.Array) and each slotMeta chunk of ranks and
// actions. A delete writes neither the planes nor the priority matrix,
// so it republishes only the match view's valid mask, counts and
// filter bitmap and the one metadata chunk holding the cleared rank;
// an insert copies the priority chunks its row and column writes
// changed. Each subtable's maximum priority rides its view, which is
// rebuilt whenever the maximum moves (only an update to that subtable
// can move it), so the interval order is all the epoch holds besides
// the views; it changes only when a subtable is assigned or released,
// which is also when the global relation matrix changes
// (d.globalDirty), and only then is either copied — the matrix by
// chunk. Within a view, written-part marks name the candidates and
// contents decide. Each live array marks the parts its writes reach
// (sram.Array each chunk, sram.TernaryArray its planes, a Subtable
// each metadata chunk) and remembers what its last sharing freeze
// returned; a publish over exactly that compares only the marked parts
// and takes the rest unread, and over anything else compares every
// part. A compared part is shared only when its contents are equal, so
// a shared part is byte-identical to a fresh freeze. The marks are
// trusted, so CheckInvariant holds every published view to a fresh
// freeze: a write that skipped its mark fails it.
//
// Torn reads are impossible by construction: every part of a view is
// copied out of the live arrays under d.mu (sram.SnapshotView) or is
// an equal part of an already published epoch, the snapshot becomes
// reachable to readers only via the atomic Store (which orders all
// those writes before the pointer publication), and nothing ever
// writes a published snapshot again — the lint suite's
// //catcam:snapshot and //catcam:write-guarded-by annotations prove
// both halves at compile time.

// subtableView is the immutable per-subtable read state: the frozen
// match and priority arrays plus the rank/action metadata the reporter
// reads, slot s in meta[s/metaChunk], and the priority of the
// subtable's maximum, its interval's upper bound. Fields are written
// only at construction; prio and the meta chunks may be shared with
// other epochs' views of the subtable.
//
//catcam:snapshot
type subtableView struct {
	id      int
	maxPrio int
	match   *sram.TernaryView
	prio    *sram.MatrixView
	meta    []*slotMeta

	// Write-pressure stamps: the live arrays' cumulative write counters
	// at view-construction time. Array writes happen only under d.mu and
	// touch the subtable, so a pointer-shared clean view always
	// carries the subtable's current write totals — the state
	// observatory reads P-matrix row/column pressure from the published
	// epoch without ever touching the device mutex.
	matchRowWrites uint64
	prioRowWrites  uint64
	prioColWrites  uint64
}

// metaChunk is how many slots one slotMeta holds: the unit in which
// publication shares rank/action metadata between epochs.
const metaChunk = 16

// slotMeta is the rank and action of metaChunk consecutive slots, as
// the reporter reads them. Slots past the subtable's capacity, in its
// last chunk, stay zero. Fields are written only at construction.
//
//catcam:snapshot
type slotMeta struct {
	ranks   [metaChunk]Rank
	actions [metaChunk]int
}

// snapshotView freezes the subtable's current read state, with maxPrio
// the priority of its maximum, sharing with prev (the previous epoch's
// view of this subtable, or nil) the match view's order and lines,
// every priority-matrix chunk and every metadata chunk whose contents
// have not changed. Pending priority-matrix writes are flushed first.
// Caller holds d.mu.
func (st *Subtable) snapshotView(prev *subtableView, maxPrio int) *subtableView {
	st.flush()
	var prevMatch *sram.TernaryView
	var prevPrio *sram.MatrixView
	var prevMeta []*slotMeta
	if prev != nil {
		prevMatch, prevPrio, prevMeta = prev.match, prev.prio, prev.meta
	}
	match, prio := st.Stats()
	return &subtableView{
		id:             st.id,
		maxPrio:        maxPrio,
		match:          st.match.SnapshotViewSharing(prevMatch),
		prio:           st.prio.SnapshotViewSharing(prevPrio),
		meta:           st.snapshotMeta(prevMeta),
		matchRowWrites: match.RowWrites,
		prioRowWrites:  prio.RowWrites,
		prioColWrites:  prio.ColWrites,
	}
}

// snapshotMeta freezes the slot metadata chunk by chunk, taking each
// chunk of prev whose ranks and actions equal the live ones and
// allocating only the chunks that changed. When prev is the table the
// last such freeze returned, only the chunks Insert or Delete wrote
// since are compared; every other chunk is prev's unread. A non-nil
// prev makes the returned table the record's. Caller holds d.mu.
func (st *Subtable) snapshotMeta(prev []*slotMeta) []*slotMeta {
	meta := make([]*slotMeta, (len(st.actions)+metaChunk-1)/metaChunk)
	trusted := len(prev) == len(meta) && len(st.lastMeta) == len(meta) && &prev[0] == &st.lastMeta[0]
	for c := range meta {
		if trusted && !st.metaWritten.Get(c) {
			meta[c] = prev[c]
			continue
		}
		ranks, actions := chunkAt(st.store.ranks, c), chunkAt(st.actions, c)
		if c < len(prev) && prev[c].ranks == ranks && prev[c].actions == actions {
			meta[c] = prev[c]
			continue
		}
		meta[c] = &slotMeta{ranks: ranks, actions: actions}
	}
	if prev != nil {
		st.lastMeta = meta
		st.metaWritten.Reset()
	}
	return meta
}

// chunkAt returns chunk c of s, zero-padded past the end of s.
func chunkAt[T any](s []T, c int) (chunk [metaChunk]T) {
	copy(chunk[:], s[c*metaChunk:])
	return chunk
}

// entry returns the rank and action stored at slot.
func (sv *subtableView) entry(slot int) Entry {
	m := sv.meta[slot/metaChunk]
	return Entry{Rank: m.ranks[slot%metaChunk], Action: m.actions[slot%metaChunk]}
}

// decide runs the in-memory priority decision over the given match
// vector and returns the winning slot, or -1 when the vector is empty.
// The report vector is checked to be one-hot — the hardware guarantee
// the encoding scheme provides: fail-stop without an auditor,
// fail-report with one (the violation is recorded and the answer comes
// from the stored ranks). Report vector and statistics live in caller
// scratch; no allocation.
func (sv *subtableView) decide(report, matchVec *bitvec.Vector, st *sram.Stats, aud *flightrec.Auditor) int {
	if !matchVec.Any() {
		return -1
	}
	rep := sv.prio.ColumnNORInto(report, matchVec, st)
	if rep.IsOneHot() {
		return rep.First()
	}
	if aud == nil {
		panic(fmt.Sprintf("core: subtable %d report vector not one-hot: %s", sv.id, rep))
	}
	//catcam:allow alloc "fail-report path for a broken hardware guarantee, never taken at steady state"
	aud.Fail(flightrec.Violation{
		Invariant: flightrec.InvReportOneHot, Table: -1, Subtable: sv.id, RuleID: -1,
		Detail: fmt.Sprintf("local report %s has %d bits set", rep, rep.Count()),
	})
	return sv.bestMatched(matchVec)
}

// bestMatched walks the match vector and returns the matched slot with
// the highest stored rank — the metadata-derived answer the one-hot
// hardware decision must agree with. Audit/fallback path only.
//
//catcam:allow alloc "audit/fallback path; the ForEach closure is off the steady-state decision"
func (sv *subtableView) bestMatched(matchVec *bitvec.Vector) int {
	best := -1
	var bestRank Rank
	matchVec.ForEach(func(i int) bool {
		r := sv.entry(i).Rank
		if best < 0 || bestRank.Less(r) {
			best, bestRank = i, r
		}
		return true
	})
	return best
}

// snapshot is one published epoch: everything the lock-free classify
// path reads, frozen. Readers obtain it with d.snap.Load and must
// treat every field as immutable.
//
//catcam:snapshot
type snapshot struct {
	epoch uint64
	// order lists the active subtable IDs by rising maximum rank — the
	// interval sequence — shared by reference with the previous epoch
	// until a subtable is assigned or released.
	order []int
	// subs is the view table: subtable id's view is
	// subs[id/viewChunkSize].views[id%viewChunkSize], nil for an
	// inactive subtable (read it through view). The table reaches the
	// highest active ID; a chunk holding no touched subtable is shared
	// by reference with the previous epoch.
	subs   []*viewChunk
	global *sram.MatrixView
	count  int // stored entries (the locator's entry count)
	// sel is the filter's key positions, shared across epochs until
	// the device re-chooses them; every view in subs was frozen for
	// exactly these (CheckInvariant), so lookup extracts a key's
	// patterns once for all of them.
	sel *sram.Selection

	// Global-matrix write-pressure stamps at publish time (the matrix's
	// own counters are mutated only under d.mu, so they ride the epoch
	// for lock-free structural derivation).
	globalRowWrites uint64
	globalColWrites uint64

	// Instruments ride the snapshot so readers never touch mutable
	// device fields; all nil-safe, internally synchronized.
	aud     *flightrec.Auditor //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	shadow  *flightrec.Shadow  //catcam:allow epoch "internally synchronized instrument, not classify-read state"
	trTable int
	trShard int
}

// viewChunkSize is how many subtable views one viewChunk holds: the
// unit in which publication shares the view table between epochs. A
// chunk is then one 128-byte size class.
const viewChunkSize = 8

// viewChunk is viewChunkSize consecutive entries of the view table.
// match repeats each view's match view, so the lookup walk reaches a
// subtable's filter in as many dependent loads as through a flat table.
// Fields are written only at construction.
//
//catcam:snapshot
type viewChunk struct {
	views [viewChunkSize]*subtableView
	match [viewChunkSize]*sram.TernaryView
}

// view returns subtable id's view in this epoch, nil when id was
// inactive. id must lie below the view table's reach, which every
// active ID does. Unsigned, the index math is a shift and a mask, and
// the slot within the chunk needs no bounds check.
func (s *snapshot) view(id int) *subtableView {
	return s.subs[uint(id)/viewChunkSize].views[uint(id)%viewChunkSize]
}

// matchView is view(id).match, read from the chunk.
func (s *snapshot) matchView(id int) *sram.TernaryView {
	return s.subs[uint(id)/viewChunkSize].match[uint(id)%viewChunkSize]
}

// snapshotOrder returns the interval order for the epoch after old:
// old's own while no subtable has been assigned or released since, a
// copy of the live order otherwise. The global matrix encodes the
// order, so d.globalDirty is set whenever the order changed. Caller
// holds d.mu.
func (d *Device) snapshotOrder(old *snapshot) []int {
	if old != nil && !d.globalDirty {
		return old.order
	}
	return slices.Clone(d.order)
}

// snapshotSubs builds the view table for the next epoch from prev,
// the previous epoch's, rebuilding the view of every touched subtable
// and the chunk that holds it and sharing every other chunk, then
// empties the touched list. Caller holds d.mu.
func (d *Device) snapshotSubs(prev []*viewChunk) []*viewChunk {
	// The table reaches the highest active ID, which only a touched
	// subtable can have moved: an assigned one raises it, and a released
	// top lowers it to the next active ID below.
	slices.Sort(d.touched)
	d.touched = slices.Compact(d.touched)
	for _, id := range d.touched {
		if d.active[id] {
			d.span = max(d.span, id+1)
		}
	}
	for d.span > 0 && !d.active[d.span-1] {
		d.span--
	}
	subs := make([]*viewChunk, (d.span+viewChunkSize-1)/viewChunkSize)
	copy(subs, prev)
	for c := len(prev); c < len(subs); c++ {
		subs[c] = &viewChunk{}
	}
	// The touched IDs are sorted, so each chunk holding one is rebuilt
	// once, from the previous epoch's chunk with the touched views
	// replaced. Those past the table's reach were released.
	rebuilt := 0
	for i := 0; i < len(d.touched); {
		c := d.touched[i] / viewChunkSize
		if c >= len(subs) {
			break
		}
		views, match := subs[c].views, subs[c].match
		for ; i < len(d.touched) && d.touched[i]/viewChunkSize == c; i++ {
			id := d.touched[i]
			k := id % viewChunkSize
			if !d.active[id] {
				views[k], match[k] = nil, nil
				continue
			}
			views[k] = d.subs[id].snapshotView(views[k], d.maxOf[id].Priority)
			match[k] = views[k].match
			rebuilt++
		}
		subs[c] = &viewChunk{views: views, match: match}
	}
	d.touched = d.touched[:0]
	d.churn.viewsRebuilt.Add(uint64(rebuilt))
	d.churn.viewsShared.Add(uint64(len(d.order) - rebuilt))
	return subs
}

// publishLocked builds the next epoch from the live state and the
// previous snapshot, sharing what is unchanged (see the copy-on-write
// notes at the top of this file), logs the pending change record for
// it (changelog.go), publishes it, and re-stamps the shadow. Inside a
// sampled update it is the trace's publish step, covering everything
// from the last datapath step to the Store. Caller holds d.mu; this is
// the only place d.snap is stored and the change log written.
func (d *Device) publishLocked() {
	d.rechooseFilter()
	old := d.snap.Load()
	var epoch uint64
	var prevSubs []*viewChunk
	if old != nil {
		epoch, prevSubs = old.epoch+1, old.subs
	}
	subs := d.snapshotSubs(prevSubs)
	var global *sram.MatrixView
	if old != nil && !d.globalDirty {
		global = old.global
	} else {
		var prevGlobal *sram.MatrixView
		if old != nil {
			prevGlobal = old.global
		}
		global = d.global.SnapshotViewSharing(prevGlobal)
		d.churn.globalRebuilds.Add(1)
	}
	gstats := d.global.Stats()
	s := &snapshot{
		epoch:           epoch,
		order:           d.snapshotOrder(old),
		subs:            subs,
		global:          global,
		count:           d.entries,
		sel:             d.sel,
		globalRowWrites: gstats.RowWrites,
		globalColWrites: gstats.ColWrites,
		aud:             d.aud,
		shadow:          d.shadow,
		trTable:         d.trTable,
		trShard:         d.trShard,
	}
	d.globalDirty = false
	d.churn.publishes.Add(1)
	// The epoch's change record is whole before the epoch is visible.
	d.log.write(s.epoch, d.pending)
	d.pending = changeRecord{}
	d.snap.Store(s)
	// Readers holding this epoch may now compare against the shadow
	// reference again (BeginEpoch paused comparisons for the update).
	d.shadow.SetEpoch(s.epoch)
	d.trace.Step(tracepkg.StagePublish, -1, -1, 0)
}

// rechooseFilter re-picks the bit-selection filter's key positions
// when the entry count has doubled or halved since the last choice, so
// a bulk load re-picks a logarithmic number of times and a table
// churning at a steady size never does. Each position scores
// min(entries caring 0, entries caring 1) summed over the active
// subtables, and the top scores win (sram.SelectPositions). A new
// choice recounts every match array's filter and touches every active
// subtable, so the epoch being published carries one selection
// throughout. Caller holds d.mu.
func (d *Device) rechooseFilter() {
	if d.entries == 0 || d.selAt > 0 && d.entries < 2*d.selAt && 2*d.entries > d.selAt {
		return
	}
	d.selAt = d.entries
	scores := make([]int, d.cfg.KeyWidth)
	for _, id := range d.order {
		d.subs[id].match.AddSplitScores(scores)
	}
	sel := sram.SelectPositions(d.cfg.KeyWidth, scores)
	if *sel == *d.sel {
		return
	}
	d.sel = sel
	for _, st := range d.subs {
		st.match.SetSelection(sel)
	}
	d.touched = append(d.touched, d.order...)
}

// Epoch returns the published epoch counter — one increment per
// publication (every update, attach, and trace-shard change). Serves
// from the snapshot, no lock.
func (d *Device) Epoch() uint64 {
	return d.snap.Load().epoch
}

// readScratch is one goroutine's private lookup working set, pooled in
// d.readPool. The paper's lookup allocates nothing — it drives fixed
// wires — and the scratch mirrors that: every key buffer and vector is
// sized once and reused per lookup, next to the kernel accumulator the
// shared views cannot own and the batch-local accounting that is
// flushed to device atomics when the scratch is returned.
//
//catcam:scratch
type readScratch struct {
	key         ternary.Key // a header's search key, device-wide
	globalMatch *bitvec.Vector
	report      *bitvec.Vector // global priority report
	localReport *bitvec.Vector // winning subtable's report
	top         *bitvec.Vector // match vector of the highest matching subtable
	probe       *bitvec.Vector // match vector of the subtable being searched
	acc         []uint64       // bit-sliced kernel accumulator

	// Batch-local accounting: accumulated per lookup without
	// synchronization, flushed once per batch (putScratch) into the
	// device's atomic counters so concurrent readers do not contend on
	// a shared cache line per lookup.
	lookups      uint64
	hostSearches uint64     // searches the host ran; the model charges every active subtable
	match        sram.Stats // all match matrices, aggregated
	prio         sram.Stats // all local priority matrices, aggregated
	global       sram.Stats // the global priority matrix

	// Span-layer trace context of the batch in flight: tr is nil on every
	// untraced batch, keyIdx is the batch index of the key being looked
	// up and focus the one key index traced at SRAM-kernel depth. The
	// header loop sets them and putScratch clears them, so a pooled
	// scratch never carries a finished trace into the next batch.
	tr     *tracepkg.Trace
	keyIdx int
	focus  int
}

func (d *Device) newReadScratch() *readScratch {
	d.churn.scratchAllocs.Add(1)
	return &readScratch{
		key:         ternary.NewKey(d.cfg.KeyWidth),
		globalMatch: bitvec.New(d.cfg.Subtables),
		report:      bitvec.New(d.cfg.Subtables),
		localReport: bitvec.New(d.cfg.SubtableCapacity),
		top:         bitvec.New(d.cfg.SubtableCapacity),
		probe:       bitvec.New(d.cfg.SubtableCapacity),
		acc:         make([]uint64, (d.cfg.SubtableCapacity+63)/64),
	}
}

// getScratch checks a read scratch out of the pool. The pool's New
// hook allocates on a cold pool; a warmed pool (one prior lookup per
// goroutine) serves every steady-state lookup allocation-free.
//
//catcam:hotpath
func (d *Device) getScratch() *readScratch {
	return d.readPool.Get().(*readScratch) //catcam:allow alloc "sync.Pool checkout; allocates only while the pool is cold"
}

// putScratch flushes the scratch's batch-local accounting into the
// device's atomic counters, then returns it to the pool.
//
//catcam:hotpath
func (d *Device) putScratch(sc *readScratch) {
	d.churn.scratchBatches.Add(1)
	d.churn.hostSearches.Add(sc.hostSearches)
	d.stats.lookups.Add(sc.lookups)
	d.rdMatch.add(&sc.match)
	d.rdPrio.add(&sc.prio)
	d.rdGlobal.add(&sc.global)
	sc.lookups, sc.hostSearches = 0, 0
	sc.match, sc.prio, sc.global = sram.Stats{}, sram.Stats{}, sram.Stats{}
	sc.tr, sc.keyIdx, sc.focus = nil, 0, 0
	d.readPool.Put(sc) //catcam:allow alloc "sync.Pool return; boxing a pointer does not allocate at steady state"
}

// lookup is the lock-free lookup core: subtable search fan-out, global
// priority decision, local priority decision, metadata readout, all
// over the frozen snapshot with every piece of working state in sc. It
// returns the winning entry and subtable ID (-1 on miss). The span
// layer's trace context rides in sc (see readScratch.tr).
//
//catcam:hotpath
func (s *snapshot) lookup(sc *readScratch, k ternary.Key) (Entry, int, bool) {
	sc.lookups++

	// traceKernel gates the per-subtable sram_kernel spans: only the
	// traced batch's one focus key records them.
	traceKernel := sc.tr != nil && sc.keyIdx == sc.focus

	// The silicon searches every active subtable at once, and the model
	// charges every one of them: the global decision's energy is
	// charged by how many match, so the walk cannot stop at the first
	// hit. The host searches only the subtables the bit-selection
	// filter admits; one it rules out would come back empty, so it is
	// charged without a search, in the same order, which leaves every
	// counter and energy sum bit-identical. order runs up the disjoint
	// intervals, so the last subtable that matches, top, is the
	// metadata's answer to which one wins, and only its match vector is
	// kept.
	globalMatch := sc.globalMatch
	globalMatch.Reset()
	top := -1
	pats := s.sel.Patterns(k)
	for _, id := range s.order {
		view := s.matchView(id)
		if !view.Admits(pats) {
			view.Charge(&sc.match)
			continue
		}
		sc.hostSearches++
		var kernelStart uint64
		if traceKernel {
			kernelStart = tracepkg.Nanos()
		}
		view.SearchInto(sc.probe, sc.acc, k, &sc.match)
		if traceKernel {
			//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
			sc.tr.Span(tracepkg.StageSRAMKernel, s.trTable, s.trShard, id, sc.keyIdx, kernelStart, 1)
		}
		if sc.probe.Any() {
			globalMatch.Set(id)
			sc.top, sc.probe = sc.probe, sc.top
			top = id
		}
	}
	if top < 0 {
		return Entry{}, -1, false
	}
	report := s.global.ColumnNORInto(sc.report, globalMatch, &sc.global)
	oneHot := report.IsOneHot()
	var winner int
	if oneHot {
		winner = report.First()
	} else {
		// The hardware encoding guarantees a one-hot report; a broken
		// guarantee is fail-stop without an auditor, fail-report with
		// one — the violation is recorded and the lookup answered from
		// the metadata so traffic keeps flowing.
		if s.aud == nil {
			panic(fmt.Sprintf("core: global report not one-hot: %s", report))
		}
		//catcam:allow alloc "fail-report path for a broken hardware guarantee, never taken at steady state"
		s.aud.Fail(flightrec.Violation{
			Invariant: flightrec.InvReportOneHot, Table: -1, Subtable: -1, RuleID: -1,
			Detail: fmt.Sprintf("global report %s has %d bits set", report, report.Count()),
		})
		winner = top
	}
	matchVec := sc.top
	if winner != top {
		// A one-hot report naming another subtable: the global matrix
		// disagrees with the interval order (the winner-agreement audit
		// reports it). Re-search the named subtable off the books — the
		// modelled search already happened in the walk above.
		var offBooks sram.Stats
		sc.hostSearches++
		matchVec = s.view(winner).match.SearchInto(sc.probe, sc.acc, k, &offBooks)
	}
	sv := s.view(winner)
	slot := sv.decide(sc.localReport, matchVec, &sc.prio, s.aud)
	if slot < 0 {
		return Entry{}, -1, false
	}
	if s.aud.SampleLookup() {
		s.auditLookup(matchVec, oneHot, top, winner, slot) //catcam:allow alloc "sampled inline audit; rate-gated off the steady-state path"
	}
	return sv.entry(slot), winner, true
}

// auditLookup runs the inline lookup checks for one sampled lookup,
// against the same epoch the answer came from: the global report
// vector was one-hot, the array-derived winner agrees with top, the
// highest interval the walk found a match in, and the winning slot is
// the matched slot with the highest stored rank.
func (s *snapshot) auditLookup(matchVec *bitvec.Vector, oneHot bool, top, winner, slot int) {
	if oneHot {
		s.aud.CheckPass(flightrec.InvReportOneHot)
	}
	s.aud.Check(flightrec.InvWinnerAgreement, top == winner, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: winner, RuleID: -1,
			Detail: fmt.Sprintf("global matrix chose subtable %d, metadata walk %d", winner, top),
		}
	})
	best := s.view(winner).bestMatched(matchVec)
	s.aud.Check(flightrec.InvWinnerAgreement, best == slot, func() flightrec.Violation {
		return flightrec.Violation{
			Table: -1, Subtable: winner, RuleID: -1,
			Detail: fmt.Sprintf("local matrix chose slot %d, stored ranks prefer %d", slot, best),
		}
	})
}

// atomicArrayStats is the device-level accumulator for array activity
// generated on the lock-free path (the live sram arrays' own counters
// are mutated only under d.mu). Only the fields a lookup touches are
// carried: cycles, NOR ops, searches, energy.
type atomicArrayStats struct {
	cycles   atomic.Uint64
	norOps   atomic.Uint64
	searches atomic.Uint64
	// energy is float64 bits, accumulated by CAS.
	energyBits atomic.Uint64
}

// add folds one scratch's batch-local stats in. One atomic add per
// touched field per batch.
//
//catcam:hotpath
func (a *atomicArrayStats) add(s *sram.Stats) {
	if s.Cycles != 0 {
		a.cycles.Add(s.Cycles)
	}
	if s.NOROps != 0 {
		a.norOps.Add(s.NOROps)
	}
	if s.Searches != 0 {
		a.searches.Add(s.Searches)
	}
	if s.EnergyFJ != 0 {
		for {
			old := a.energyBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + s.EnergyFJ)
			if a.energyBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// load returns the accumulated totals as a plain sram.Stats.
func (a *atomicArrayStats) load() sram.Stats {
	return sram.Stats{
		Cycles:   a.cycles.Load(),
		NOROps:   a.norOps.Load(),
		Searches: a.searches.Load(),
		EnergyFJ: math.Float64frombits(a.energyBits.Load()),
	}
}

// reset zeroes the accumulator.
func (a *atomicArrayStats) reset() {
	a.cycles.Store(0)
	a.norOps.Store(0)
	a.searches.Store(0)
	a.energyBits.Store(0)
}

// deviceStats is Stats with every field atomic, so the monitoring
// accessors (Stats) never contend with classify or update traffic.
// Update-side fields are still only written under d.mu; lookup fields
// are flushed from read scratches.
type deviceStats struct {
	lookups        atomic.Uint64
	deletes        atomic.Uint64
	reallocations  atomic.Uint64
	directInserts  atomic.Uint64
	reallocInserts atomic.Uint64
	updateCycles   atomic.Uint64
	freshSubtables atomic.Uint64
}

// snapshot returns the current totals as the exported Stats shape.
// Every insert is direct or reallocating, and every lookup is charged
// one pipelined cycle, so Inserts and LookupCycles are derived.
func (s *deviceStats) snapshot() Stats {
	st := Stats{
		Lookups:        s.lookups.Load(),
		Deletes:        s.deletes.Load(),
		Reallocations:  s.reallocations.Load(),
		DirectInserts:  s.directInserts.Load(),
		ReallocInserts: s.reallocInserts.Load(),
		UpdateCycles:   s.updateCycles.Load(),
		FreshSubtables: s.freshSubtables.Load(),
	}
	st.Inserts = st.DirectInserts + st.ReallocInserts
	st.LookupCycles = st.Lookups
	return st
}

// reset zeroes every counter.
func (s *deviceStats) reset() {
	s.lookups.Store(0)
	s.deletes.Store(0)
	s.reallocations.Store(0)
	s.directInserts.Store(0)
	s.reallocInserts.Store(0)
	s.updateCycles.Store(0)
	s.freshSubtables.Store(0)
}
