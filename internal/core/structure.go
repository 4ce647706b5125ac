package core

import "sync/atomic"

// This file is the device half of the state observatory
// (internal/stateobs): a lock-free derivation pass that turns the
// published epoch snapshot into per-subtable structural metrics —
// occupancy, priority-interval density, care-bit density, write
// pressure — plus the epoch-churn accounting publishLocked and the
// scratch pool accumulate. Everything here reads the frozen snapshot
// or device atomics; the derivation never takes d.mu, so it can run
// on a sampling goroutine while classify and update traffic proceed.

// epochChurn accumulates snapshot-publication accounting: how often
// epochs publish, how much of each epoch was re-materialized vs
// pointer-shared, and how well the read-scratch pool amortizes. All
// counters are written on paths that already synchronize (publishes
// under d.mu, scratch counters on pool transitions) but read lock-free
// by DeriveStructure, hence atomics.
type epochChurn struct {
	publishes      atomic.Uint64
	viewsRebuilt   atomic.Uint64
	viewsShared    atomic.Uint64
	globalRebuilds atomic.Uint64
	scratchAllocs  atomic.Uint64
	scratchBatches atomic.Uint64
	hostSearches   atomic.Uint64
}

func (c *epochChurn) reset() {
	c.publishes.Store(0)
	c.viewsRebuilt.Store(0)
	c.viewsShared.Store(0)
	c.globalRebuilds.Store(0)
	c.scratchAllocs.Store(0)
	c.scratchBatches.Store(0)
	c.hostSearches.Store(0)
}

// StructuralChurn is the exported snapshot of epoch-churn accounting.
// All fields are cumulative since device creation (or the last
// ResetStats); the observatory's ring turns them into rates.
type StructuralChurn struct {
	// Publishes counts epoch publications (one per update/attach).
	Publishes uint64 `json:"publishes"`
	// ViewsRebuilt counts subtable views re-materialized because an
	// update touched their subtable; ViewsShared counts views
	// pointer-shared with the previous epoch. Their ratio is the COW
	// efficiency of the publication scheme.
	ViewsRebuilt uint64 `json:"views_rebuilt"`
	ViewsShared  uint64 `json:"views_shared"`
	// GlobalRebuilds counts global-matrix view copies (subtable
	// assignment/release epochs only).
	GlobalRebuilds uint64 `json:"global_rebuilds"`
	// ScratchAllocs counts cold read-scratch allocations (the pool's
	// New hook); ScratchBatches counts pool checkouts (one per lookup
	// batch). 1 - allocs/batches is the scratch-pool hit rate.
	ScratchAllocs  uint64 `json:"scratch_allocs"`
	ScratchBatches uint64 `json:"scratch_batches"`
}

func (c *StructuralChurn) add(o StructuralChurn) {
	c.Publishes += o.Publishes
	c.ViewsRebuilt += o.ViewsRebuilt
	c.ViewsShared += o.ViewsShared
	c.GlobalRebuilds += o.GlobalRebuilds
	c.ScratchAllocs += o.ScratchAllocs
	c.ScratchBatches += o.ScratchBatches
}

// SubtableStructure is the derived structural state of one active
// subtable, as of one published epoch.
type SubtableStructure struct {
	// Index is the dense heatmap row: the subtable ID for a standalone
	// device, shard*subtables+ID after cluster aggregation.
	Index int `json:"index"`
	// ID is the subtable's device-local ID; Shard/Table locate the
	// device in a cluster/flowtable (-1 when not applicable).
	ID    int `json:"id"`
	Shard int `json:"shard"`
	Table int `json:"table"`
	// Entries/Capacity give the subtable's fill; Full mirrors
	// Entries == Capacity (an insert into this interval must evict).
	Entries  int  `json:"entries"`
	Capacity int  `json:"capacity"`
	Full     bool `json:"full"`
	// MaxPriority is the interval's upper bound (the subtable's max
	// rank priority); IntervalWidth is the priority span the interval
	// covers (clamped to >= 1); Density is entries per priority unit.
	MaxPriority   int     `json:"max_priority"`
	IntervalWidth int     `json:"interval_width"`
	Density       float64 `json:"density"`
	// CareBits of TernaryBits positions are non-wildcard over the valid
	// entries; their ratio is the care-bit density, the complement the
	// wildcard density.
	CareBits    uint64 `json:"care_bits"`
	TernaryBits uint64 `json:"ternary_bits"`
	// Write-pressure stamps: cumulative array writes at the epoch the
	// view was built (match matrix row writes; local P-matrix row and
	// column writes).
	MatchRowWrites uint64 `json:"match_row_writes"`
	PrioRowWrites  uint64 `json:"prio_row_writes"`
	PrioColWrites  uint64 `json:"prio_col_writes"`
}

// Structure is one derived structural observation of a device (or, via
// cluster/flowtable aggregation, a fleet of devices): everything the
// state observatory samples into its ring. A Structure is reusable —
// DeriveStructure truncates and refills the slices in place, so a
// steady-state sampling loop allocates nothing.
type Structure struct {
	// Epoch is the published epoch the observation derives from; after
	// cluster or pipeline aggregation it is the highest part's epoch,
	// not Cluster.Epoch's cut sequence or Pipeline.Epoch's sum. ShardEpochs
	// lists the parts' epochs: one per shard for a cluster, and for a
	// pipeline one per single-device table or per shard of a sharded
	// table, in pipeline order (nil for a standalone device).
	Epoch       uint64   `json:"epoch"`
	ShardEpochs []uint64 `json:"shard_epochs,omitempty"`

	Entries          int     `json:"entries"`
	Capacity         int     `json:"capacity"`
	TotalSubtables   int     `json:"total_subtables"`
	SubtableCapacity int     `json:"subtable_capacity"`
	ActiveSubtables  int     `json:"active_subtables"`
	FreeSubtables    int     `json:"free_subtables"`
	FullSubtables    int     `json:"full_subtables"`
	Occupancy        float64 `json:"occupancy"`

	// FragIndex is the interval-weighted expected occupancy: the
	// probability-weighted fill of the subtable a uniformly random
	// priority insert would land in (weights are interval widths). It
	// approaches 1 when the rank mass concentrates in full subtables —
	// eviction pressure — before raw occupancy does.
	FragIndex float64 `json:"frag_index"`
	// MaxFullRun is the longest run of consecutive full subtables in
	// interval order: the depth an eviction chain would need under the
	// chained-reallocation ablation, and a direct measure of how close
	// the O(1) design is to spending fresh subtables on every insert.
	MaxFullRun int `json:"max_full_run"`

	// CareBits/TernaryBits aggregate the per-subtable care profile;
	// CareDensity is their ratio (0 when empty).
	CareBits    uint64  `json:"care_bits"`
	TernaryBits uint64  `json:"ternary_bits"`
	CareDensity float64 `json:"care_density"`

	// Aggregate write pressure (cumulative at this epoch).
	MatchRowWrites  uint64 `json:"match_row_writes"`
	PrioRowWrites   uint64 `json:"prio_row_writes"`
	PrioColWrites   uint64 `json:"prio_col_writes"`
	GlobalRowWrites uint64 `json:"global_row_writes"`
	GlobalColWrites uint64 `json:"global_col_writes"`

	Churn StructuralChurn `json:"churn"`
	// Ops is the device's operation counters at derivation time (the
	// ring differentiates them into rates; Reallocations deltas are the
	// measured eviction-chain activity).
	Ops Stats `json:"ops"`

	// Subtables lists the active subtables in interval order.
	Subtables []SubtableStructure `json:"subtables"`
}

// Reset truncates the reusable slices and zeroes the scalar fields.
func (s *Structure) Reset() {
	s.ShardEpochs = s.ShardEpochs[:0]
	s.Subtables = s.Subtables[:0]
	*s = Structure{ShardEpochs: s.ShardEpochs, Subtables: s.Subtables}
}

// Merge folds part, one shard's or one table's derivation, into the
// composite s. Counts, write pressure, Churn and Ops add up;
// MaxFullRun, SubtableCapacity and Epoch keep the largest part's.
// ShardEpochs gains the part's own ShardEpochs, or its Epoch when it
// has none. The part's subtables are appended with Index shifted past
// the TotalSubtables merged so far, and tagged with shard and table
// where those are >= 0 (-1 keeps the part's own tag). Until Finish,
// FragIndex holds the capacity-weighted sum of the parts' indices.
// Start from a Reset Structure and call Finish after the last part.
func (s *Structure) Merge(part *Structure, shard, table int) {
	s.Epoch = max(s.Epoch, part.Epoch)
	if len(part.ShardEpochs) > 0 {
		s.ShardEpochs = append(s.ShardEpochs, part.ShardEpochs...)
	} else {
		s.ShardEpochs = append(s.ShardEpochs, part.Epoch)
	}
	for _, sub := range part.Subtables {
		sub.Index += s.TotalSubtables
		if shard >= 0 {
			sub.Shard = shard
		}
		if table >= 0 {
			sub.Table = table
		}
		s.Subtables = append(s.Subtables, sub)
	}
	s.Entries += part.Entries
	s.Capacity += part.Capacity
	s.TotalSubtables += part.TotalSubtables
	s.SubtableCapacity = max(s.SubtableCapacity, part.SubtableCapacity)
	s.ActiveSubtables += part.ActiveSubtables
	s.FreeSubtables += part.FreeSubtables
	s.FullSubtables += part.FullSubtables
	s.FragIndex += part.FragIndex * float64(part.Capacity)
	s.MaxFullRun = max(s.MaxFullRun, part.MaxFullRun)
	s.CareBits += part.CareBits
	s.TernaryBits += part.TernaryBits
	s.MatchRowWrites += part.MatchRowWrites
	s.PrioRowWrites += part.PrioRowWrites
	s.PrioColWrites += part.PrioColWrites
	s.GlobalRowWrites += part.GlobalRowWrites
	s.GlobalColWrites += part.GlobalColWrites
	s.Churn.add(part.Churn)
	s.Ops.Add(part.Ops)
}

// Finish computes the composite's ratios once every part is merged:
// Occupancy, the capacity-weighted FragIndex and CareDensity.
func (s *Structure) Finish() {
	if s.Capacity > 0 {
		s.Occupancy = float64(s.Entries) / float64(s.Capacity)
		s.FragIndex /= float64(s.Capacity)
	}
	if s.TernaryBits > 0 {
		s.CareDensity = float64(s.CareBits) / float64(s.TernaryBits)
	}
}

// DeriveStructure derives the device's structural state from the
// currently published epoch snapshot into dst (allocated when nil) and
// returns it. Lock-free: one atomic snapshot load plus traversal of
// frozen views, the immutable config and device atomics — never the
// device mutex — so the observatory can sample at any rate without
// perturbing classify or update latency. dst's slices are reused
// across calls; a sampling loop reusing one Structure allocates nothing
// at steady state.
//
//catcam:hotpath
func (d *Device) DeriveStructure(dst *Structure) *Structure {
	if dst == nil {
		dst = &Structure{} //catcam:allow alloc "nil-dst convenience; sampling loops pass a reused Structure"
	}
	s := d.snap.Load()
	dst.Reset()
	dst.Epoch = s.epoch
	dst.Entries = s.count
	dst.TotalSubtables = d.cfg.Subtables
	dst.SubtableCapacity = d.cfg.SubtableCapacity
	dst.Capacity = d.cfg.Subtables * d.cfg.SubtableCapacity
	dst.ActiveSubtables = len(s.order)
	dst.FreeSubtables = d.cfg.Subtables - len(s.order)
	if dst.Capacity > 0 {
		dst.Occupancy = float64(s.count) / float64(dst.Capacity)
	}
	dst.GlobalRowWrites = s.globalRowWrites
	dst.GlobalColWrites = s.globalColWrites

	prevMax := 0
	fullRun := 0
	var weightSum, weightedOcc float64
	for i, id := range s.order {
		sv := s.view(id)
		entries := sv.match.ValidCount()
		capacity := sv.match.Rows()
		maxP := sv.maxPrio
		// Interval width in priority units: (prevMax, maxP], clamped to
		// >= 1 (adjacent intervals can share a priority and differ only
		// in rank tiebreaks; the first interval's floor is priority 0).
		width := maxP - prevMax
		if i == 0 {
			width = maxP + 1
		}
		if width < 1 {
			width = 1
		}
		prevMax = maxP

		care := sv.match.CareCount()
		ternary := uint64(entries) * uint64(sv.match.Width())
		full := entries == capacity

		sub := SubtableStructure{
			Index:          id,
			ID:             id,
			Shard:          -1,
			Table:          -1,
			Entries:        entries,
			Capacity:       capacity,
			Full:           full,
			MaxPriority:    maxP,
			IntervalWidth:  width,
			Density:        float64(entries) / float64(width),
			CareBits:       care,
			TernaryBits:    ternary,
			MatchRowWrites: sv.matchRowWrites,
			PrioRowWrites:  sv.prioRowWrites,
			PrioColWrites:  sv.prioColWrites,
		}
		dst.Subtables = append(dst.Subtables, sub) //catcam:allow alloc "slice growth on first derivations; steady state reuses dst's capacity"

		occ := float64(entries) / float64(capacity)
		weightSum += float64(width)
		weightedOcc += float64(width) * occ
		dst.CareBits += care
		dst.TernaryBits += ternary
		dst.MatchRowWrites += sv.matchRowWrites
		dst.PrioRowWrites += sv.prioRowWrites
		dst.PrioColWrites += sv.prioColWrites
		if full {
			dst.FullSubtables++
			fullRun++
			if fullRun > dst.MaxFullRun {
				dst.MaxFullRun = fullRun
			}
		} else {
			fullRun = 0
		}
	}
	if weightSum > 0 {
		dst.FragIndex = weightedOcc / weightSum
	}
	if dst.TernaryBits > 0 {
		dst.CareDensity = float64(dst.CareBits) / float64(dst.TernaryBits)
	}
	dst.Churn = StructuralChurn{
		Publishes:      d.churn.publishes.Load(),
		ViewsRebuilt:   d.churn.viewsRebuilt.Load(),
		ViewsShared:    d.churn.viewsShared.Load(),
		GlobalRebuilds: d.churn.globalRebuilds.Load(),
		ScratchAllocs:  d.churn.scratchAllocs.Load(),
		ScratchBatches: d.churn.scratchBatches.Load(),
	}
	dst.Ops = d.stats.snapshot()
	return dst
}

// CarePerPosition appends the device-wide per-plane care profile — for
// each ternary key position, how many valid entries care at it — and
// returns the extended slice. Served from the published snapshot, no
// lock; intended for on-demand export (the /debug/state handler), not
// the sampling loop.
func (d *Device) CarePerPosition(dst []uint64) []uint64 {
	s := d.snap.Load()
	base := len(dst)
	dst = append(dst, make([]uint64, d.cfg.KeyWidth)...)
	scratch := make([]uint64, 0, d.cfg.KeyWidth)
	for _, id := range s.order {
		scratch = s.view(id).match.CarePerPosition(scratch[:0])
		for i, c := range scratch {
			dst[base+i] += c
		}
	}
	return dst
}

// OnStatsReset registers fn to run after ResetStats or ResetArrayStats
// zeroes the device-side counters, so attached observers (the state
// observatory) clear their derived gauges and rings in the same breath
// and no stale structure survives a reset. Hooks run with the device
// mutex held and must not call back into device methods.
func (d *Device) OnStatsReset(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resetHooks = append(d.resetHooks, fn)
}
