package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
)

// Live rebalancing: a background pass migrates rules from the fullest
// shard to a neighbour in bounded batches, so a skewed priority
// distribution does not strand capacity. Each batch runs under the
// cluster's write lock — the migration epoch — so a classify never
// observes a rule mid-flight between shards; the batches are bounded
// (entries, not rules) to keep that exclusion window short. Only
// boundary rules move, and the interval bound moves with them, so the
// partition stays disjoint; rules sharing the cut priority migrate
// together, because interval routing is a pure function of priority.

// RebalanceOnce runs one bounded migration pass: it picks the shard
// with the most stored entries as donor and the donor's lighter
// neighbor as recipient (intervals only stretch across adjacent
// shards), then moves rules until about batch entries have migrated or
// the pair is balanced. Returns the number of rules moved; 0 means the
// cluster is already balanced (donor exceeds recipient by no more than
// batch entries). Safe under concurrent classify and update traffic.
func (c *Cluster) RebalanceOnce(batch int) int {
	if batch <= 0 {
		batch = 64
	}
	if len(c.shards) < 2 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	donor, recipient := c.pickPair()
	donorN, recipN := c.shards[donor].Len(), c.shards[recipient].Len()
	if donorN-recipN <= batch {
		return 0
	}
	// Move at most `batch` entries, and never past the midpoint —
	// overshooting would just invert the imbalance.
	target := (donorN - recipN) / 2
	if target > batch {
		target = batch
	}

	moved := c.moveBoundary(donor, recipient, target)
	if moved > 0 {
		c.rebalMu.Lock()
		c.rebalPasses++
		c.rebalMoved += uint64(moved)
		c.rebalMu.Unlock()
		if t := c.tel; t != nil {
			t.rebalances.Inc()
			t.moved.Add(uint64(moved))
			t.event(telemetry.Event{
				Kind: telemetry.EvRebalance, Table: -1, Subtable: donor, RuleID: -1,
				Depth: moved,
				Note:  fmt.Sprintf("shard %d -> %d: %d rules", donor, recipient, moved),
			})
		}
	}
	return moved
}

// pickPair chooses (donor, recipient) by stored entry count; callers
// hold mu and ensure at least two shards. Intervals are contiguous, so
// rules can only spill into an adjacent shard.
func (c *Cluster) pickPair() (donor, recipient int) {
	donor = 0
	for i, s := range c.shards {
		if s.Len() > c.shards[donor].Len() {
			donor = i
		}
	}
	switch {
	case donor == 0:
		recipient = 1
	case donor == len(c.shards)-1:
		recipient = donor - 1
	case c.shards[donor-1].Len() <= c.shards[donor+1].Len():
		recipient = donor - 1
	default:
		recipient = donor + 1
	}
	return donor, recipient
}

// donorRules snapshots the donor's rules sorted ascending by
// (priority, ID); callers hold mu.
func (c *Cluster) donorRules(donor int) []ownedRule {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	var out []ownedRule
	for _, o := range c.owner {
		if o.shard == donor {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rule.Priority != out[j].rule.Priority {
			return out[i].rule.Priority < out[j].rule.Priority
		}
		return out[i].rule.ID < out[j].rule.ID
	})
	return out
}

// moveBoundary migrates boundary rules from donor to the adjacent
// recipient until about target entries moved, then slides the interval
// bound to match. Rules tied at the cut priority move as one group
// (routing is a function of priority alone); a group that cannot
// complete — recipient full — is rolled back so the bound stays exact.
// Callers hold mu.
func (c *Cluster) moveBoundary(donor, recipient, target int) int {
	rs := c.donorRules(donor)
	if len(rs) == 0 {
		return 0
	}
	up := recipient == donor+1 // moving the donor's top toward higher intervals
	// Walk from the edge shared with the recipient: top of the donor
	// when moving up, bottom when moving down.
	if up {
		for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
			rs[i], rs[j] = rs[j], rs[i]
		}
	}
	var moved, movedEntries int
	for i := 0; i < len(rs) && movedEntries < target; {
		// The tie group: every donor rule at this priority.
		j := i + 1
		for j < len(rs) && rs[j].rule.Priority == rs[i].rule.Priority {
			j++
		}
		group := rs[i:j]
		// Leaving at least one priority class behind keeps the donor
		// active; moving its whole population is never needed to halve
		// an imbalance against a neighbor with spare room.
		if j == len(rs) {
			break
		}
		if !c.migrateGroup(group, donor, recipient) {
			break
		}
		for _, o := range group {
			movedEntries += o.rule.ExpansionCount()
		}
		moved += len(group)
		// Slide the bound so the moved priorities now route to the
		// recipient: moving up shrinks the donor's interval from
		// above; moving down grows the recipient's from above.
		cut := group[0].rule.Priority
		c.routeMu.Lock()
		if up {
			c.bounds[donor] = cut - 1
		} else {
			c.bounds[recipient] = cut
		}
		c.routeMu.Unlock()
		i = j
	}
	return moved
}

// move puts r on shard to, then deletes the rule of that ID from shard
// from — in that order, so the rule is never absent from both devices
// (classifies are excluded by mu anyway; this keeps the devices
// individually consistent at every step) and a full destination leaves
// everything as it was. Cycle costs of both phases are reported
// together. Callers hold mu.Lock and move the owner record.
func (c *Cluster) move(r rules.Rule, from, to int) (core.UpdateResult, error) {
	res, err := c.shards[to].InsertRule(r)
	if err != nil {
		return res, err
	}
	del, err := c.shards[from].DeleteRule(r.ID)
	if err != nil {
		panic(fmt.Sprintf("cluster: rule %d moved to shard %d but its delete from shard %d failed: %v", r.ID, to, from, err))
	}
	res.Cycles += del.Cycles
	return res, nil
}

// migrateGroup moves one rule group donor -> recipient. On a
// recipient-full failure the group's already-moved members return to
// the donor and the migration reports false. Callers hold mu.
func (c *Cluster) migrateGroup(group []ownedRule, donor, recipient int) bool {
	for k, o := range group {
		if _, err := c.move(o.rule, donor, recipient); err != nil {
			for _, prev := range group[:k] {
				if _, err := c.move(prev.rule, recipient, donor); err != nil {
					panic(fmt.Sprintf("cluster: rollback of rule %d to shard %d failed: %v", prev.rule.ID, donor, err))
				}
			}
			return false
		}
	}
	c.routeMu.Lock()
	for _, o := range group {
		c.owner[o.rule.ID] = ownedRule{shard: recipient, rule: o.rule}
	}
	c.routeMu.Unlock()
	return true
}

// RebalanceStats returns how many passes moved rules and the total
// rules moved.
func (c *Cluster) RebalanceStats() (passes, moved uint64) {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()
	return c.rebalPasses, c.rebalMoved
}

// StartRebalancer runs RebalanceOnce(batch) every interval on a
// background goroutine until the returned stop function is called.
func (c *Cluster) StartRebalancer(interval time.Duration, batch int) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.RebalanceOnce(batch)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
