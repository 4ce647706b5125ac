package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"catcam/internal/core"
	"catcam/internal/rules"
)

// Snapshot is a deterministic dump of a whole cluster: the live
// interval bounds, the shard geometry and each shard's rules sorted by
// ID. Restoring a snapshot rebuilds a cluster that classifies
// identically and snapshots back to the same bytes, with every rule on
// the shard the dump recorded, so a rebalanced layout survives the
// round trip. Older dumps carry a "mode" field, which decoding ignores:
// an interval dump restores, and a multi-shard hash dump has no bounds
// and fails validation.
type Snapshot struct {
	Bounds []int          `json:"bounds,omitempty"`
	Device core.Config    `json:"device"`
	Shards [][]rules.Rule `json:"shards"`
}

// Snapshot captures the cluster's current rules and routing state. It
// holds the migration epoch (mu.Lock) for the duration, so updates,
// migration and classify all wait until it returns, and it reads only
// the control-plane rule store — no device state is touched.
func (c *Cluster) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &Snapshot{
		Device: c.cfg.Device,
		Shards: make([][]rules.Rule, len(c.shards)),
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	snap.Bounds = append([]int(nil), c.bounds...)
	for _, o := range c.owner {
		snap.Shards[o.shard] = append(snap.Shards[o.shard], o.rule)
	}
	for _, rs := range snap.Shards {
		sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	}
	return snap
}

// WriteSnapshot serializes the snapshot as indented JSON.
func (c *Cluster) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// ReadSnapshot parses and validates a snapshot previously written by
// WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("cluster: decoding snapshot: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks everything Restore would otherwise trust from the
// blob: the shard count, the device geometry, the rule bodies (unique
// IDs, encodable fields), ascending bounds and that every rule sits in
// the shard its priority routes to — the arbiter picks winners by shard
// order, so a misfiled rule is a silently wrong answer.
func (s *Snapshot) validate() error {
	if len(s.Shards) == 0 {
		return fmt.Errorf("cluster: snapshot has no shards")
	}
	if err := s.Device.Validate(); err != nil {
		return fmt.Errorf("cluster: snapshot device: %w", err)
	}
	var all rules.Ruleset
	for _, rs := range s.Shards {
		all.Rules = append(all.Rules, rs...)
	}
	if err := all.Validate(); err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	if len(s.Bounds) != len(s.Shards)-1 {
		return fmt.Errorf("cluster: snapshot has %d bounds for %d shards", len(s.Bounds), len(s.Shards))
	}
	if !sort.IntsAreSorted(s.Bounds) {
		return fmt.Errorf("cluster: snapshot bounds not ascending: %v", s.Bounds)
	}
	for sh, rs := range s.Shards {
		for _, r := range rs {
			if want := sort.SearchInts(s.Bounds, r.Priority); want != sh {
				return fmt.Errorf("cluster: snapshot files rule %d (priority %d) under shard %d, its interval is shard %d",
					r.ID, r.Priority, sh, want)
			}
		}
	}
	return nil
}

// Restore builds a cluster from a snapshot: same bounds, every rule
// reloaded into the shard that held it at dump time. The per-shard
// reloads are plain device inserts, so all derived state (subtable
// intervals, priority matrices, bit planes) is rebuilt rather than
// trusted from the dump. A snapshot that fails validation (see
// validate) returns an error instead of building anything.
func Restore(s *Snapshot) (*Cluster, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := New(Config{Shards: len(s.Shards), Device: s.Device, Bounds: s.Bounds})
	for sh, rs := range s.Shards {
		for _, r := range rs {
			c.routeMu.Lock()
			c.owner[r.ID] = ownedRule{shard: sh, rule: r}
			c.routeMu.Unlock()
			if _, err := c.shards[sh].dev.InsertRule(r); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: restoring rule %d into shard %d: %w", r.ID, sh, err)
			}
		}
	}
	return c, nil
}
