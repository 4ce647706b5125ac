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
// them into dst (allocated when nil) with core.Structure.Merge, each
// shard's subtables tagged with their shard. Lock-free with respect to
// classify and update traffic — each shard derive is one atomic
// snapshot load plus frozen-view traversal. A derive takes the
// cluster's per-shard buffers and puts them back, so a concurrent
// derive allocates its own instead of waiting.
func (c *Cluster) DeriveStructure(dst *core.Structure) *core.Structure {
	if dst == nil {
		dst = &core.Structure{}
	}
	parts := c.structs.Swap(nil)
	if parts == nil {
		s := make([]core.Structure, len(c.shards))
		parts = &s
	}
	dst.Reset()
	for i, s := range c.shards {
		dst.Merge(s.DeriveStructure(&(*parts)[i]), i, -1)
	}
	dst.Finish()
	c.structs.Store(parts)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetHooks = append(c.resetHooks, fn)
}
