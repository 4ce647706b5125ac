package cluster

import "catcam/internal/core"

// This file is the cluster half of the state observatory: per-shard
// structural derivation aggregated behind the same Source surface a
// standalone device exposes, so internal/stateobs samples a cluster
// exactly like a device. Each shard derives lock-free from its own
// published epoch; the merge re-indexes subtables onto a dense
// cluster-wide heatmap row (shard*subtables + id) and carries every
// shard's epoch so /metrics and /debug/state expose per-shard
// publication progress.

// DeriveStructure derives every shard's structural state and merges
// them into dst (allocated when nil): entry/capacity/churn sums, a
// capacity-weighted fragmentation index, per-shard epochs, and the
// concatenated subtable list with Shard and dense heatmap Index set.
// Lock-free with respect to classify and update traffic — each shard
// derive is one atomic snapshot load plus frozen-view traversal.
func (c *Cluster) DeriveStructure(dst *core.Structure) *core.Structure {
	if dst == nil {
		dst = &core.Structure{}
	}
	c.structMu.Lock()
	defer c.structMu.Unlock()
	if c.shardStructs == nil {
		c.shardStructs = make([]core.Structure, len(c.shards))
	}
	shardEpochs, subtables := dst.ShardEpochs[:0], dst.Subtables[:0]
	*dst = core.Structure{ShardEpochs: shardEpochs, Subtables: subtables}

	var weightedFrag float64
	offset := 0
	for i, s := range c.shards {
		sh := s.DeriveStructure(&c.shardStructs[i])
		dst.ShardEpochs = append(dst.ShardEpochs, sh.Epoch)
		if sh.Epoch > dst.Epoch {
			dst.Epoch = sh.Epoch
		}
		dst.Entries += sh.Entries
		dst.Capacity += sh.Capacity
		dst.TotalSubtables += sh.TotalSubtables
		dst.SubtableCapacity = sh.SubtableCapacity
		dst.ActiveSubtables += sh.ActiveSubtables
		dst.FreeSubtables += sh.FreeSubtables
		dst.FullSubtables += sh.FullSubtables
		if sh.MaxFullRun > dst.MaxFullRun {
			dst.MaxFullRun = sh.MaxFullRun
		}
		dst.CareBits += sh.CareBits
		dst.TernaryBits += sh.TernaryBits
		dst.MatchRowWrites += sh.MatchRowWrites
		dst.PrioRowWrites += sh.PrioRowWrites
		dst.PrioColWrites += sh.PrioColWrites
		dst.GlobalRowWrites += sh.GlobalRowWrites
		dst.GlobalColWrites += sh.GlobalColWrites

		dst.Churn.Publishes += sh.Churn.Publishes
		dst.Churn.ViewsRebuilt += sh.Churn.ViewsRebuilt
		dst.Churn.ViewsShared += sh.Churn.ViewsShared
		dst.Churn.GlobalRebuilds += sh.Churn.GlobalRebuilds
		dst.Churn.ScratchAllocs += sh.Churn.ScratchAllocs
		dst.Churn.ScratchBatches += sh.Churn.ScratchBatches

		dst.Ops.Lookups += sh.Ops.Lookups
		dst.Ops.Inserts += sh.Ops.Inserts
		dst.Ops.Deletes += sh.Ops.Deletes
		dst.Ops.Reallocations += sh.Ops.Reallocations
		dst.Ops.DirectInserts += sh.Ops.DirectInserts
		dst.Ops.ReallocInserts += sh.Ops.ReallocInserts
		dst.Ops.UpdateCycles += sh.Ops.UpdateCycles
		dst.Ops.LookupCycles += sh.Ops.LookupCycles
		dst.Ops.FreshSubtables += sh.Ops.FreshSubtables

		weightedFrag += sh.FragIndex * float64(sh.Capacity)
		for _, sub := range sh.Subtables {
			sub.Shard = i
			sub.Index = offset + sub.ID
			dst.Subtables = append(dst.Subtables, sub)
		}
		offset += sh.TotalSubtables
	}
	if dst.Capacity > 0 {
		dst.Occupancy = float64(dst.Entries) / float64(dst.Capacity)
		dst.FragIndex = weightedFrag / float64(dst.Capacity)
	}
	if dst.TernaryBits > 0 {
		dst.CareDensity = float64(dst.CareBits) / float64(dst.TernaryBits)
	}
	return dst
}

// CarePerPosition sums the shards' per-plane care profiles (every
// shard has the same key width) and appends the result to dst.
func (c *Cluster) CarePerPosition(dst []uint64) []uint64 {
	base := len(dst)
	var scratch []uint64
	for _, s := range c.shards {
		scratch = s.CarePerPosition(scratch[:0])
		for len(dst)-base < len(scratch) {
			dst = append(dst, 0)
		}
		for i, v := range scratch {
			dst[base+i] += v
		}
	}
	return dst
}

// OnStatsReset registers fn to run after Cluster.ResetStats zeroes the
// shard statistics — the cluster-level counterpart of
// core.Device.OnStatsReset, so an observatory sampling the cluster
// clears its ring on reset.
func (c *Cluster) OnStatsReset(fn func()) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.resetHooks = append(c.resetHooks, fn)
}
