package flowtable

import (
	"sync"
	"testing"

	"catcam/internal/core"
)

func TestPipelineDeriveStructure(t *testing.T) {
	p := buildPipeline(t)

	s := p.DeriveStructure(nil)
	if s.Entries != 4 {
		t.Fatalf("entries %d, want 4 installed rules", s.Entries)
	}
	if s.TotalSubtables != 3*4 {
		t.Fatalf("total subtables %d, want 12 (3 tables x 4)", s.TotalSubtables)
	}
	if len(s.ShardEpochs) != 3 {
		t.Fatalf("per-table epochs %v, want 3 entries", s.ShardEpochs)
	}
	perTable := map[int]int{}
	seen := map[int]bool{}
	for _, sub := range s.Subtables {
		if sub.Table < 0 || sub.Table > 2 {
			t.Fatalf("untagged table: %+v", sub)
		}
		perTable[sub.Table] += sub.Entries
		if sub.Index < 0 || sub.Index >= s.TotalSubtables {
			t.Fatalf("heatmap index %d out of [0,%d)", sub.Index, s.TotalSubtables)
		}
		if seen[sub.Index] {
			t.Fatalf("duplicate heatmap index %d", sub.Index)
		}
		seen[sub.Index] = true
	}
	// buildPipeline installs 2 rules in table 0, 1 in table 1, 1 in 2.
	if perTable[0] != 2 || perTable[1] != 1 || perTable[2] != 1 {
		t.Fatalf("per-table entries %v, want map[0:2 1:1 2:1]", perTable)
	}
	if s.Ops.Inserts != 4 || s.Churn.Publishes == 0 {
		t.Fatalf("aggregate accounting wrong: ops %+v churn %+v", s.Ops, s.Churn)
	}

	// Reusing the destination must not leak previous subtable rows.
	s2 := p.DeriveStructure(s)
	if len(s2.Subtables) != len(seen) {
		t.Fatalf("reused derive grew to %d rows", len(s2.Subtables))
	}
}

func TestPipelineOnStatsReset(t *testing.T) {
	p := buildPipeline(t)
	hooks := 0
	p.OnStatsReset(func() { hooks++ })
	// Resetting one table's backend fires the hook once per reset.
	p.tables[0].dev.ResetStats()
	if hooks != 1 {
		t.Fatalf("hook ran %d times after one table reset, want 1", hooks)
	}
}

// TestPipelineDeriveStructureConcurrent: derives from several
// goroutines at once share the pipeline's per-table buffers without a
// lock, so each must still see every table whole. Run with -race.
func TestPipelineDeriveStructureConcurrent(t *testing.T) {
	p := buildPipeline(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s *core.Structure
			for i := 0; i < 50; i++ {
				if s = p.DeriveStructure(s); s.Entries != 4 || len(s.ShardEpochs) != 3 {
					t.Errorf("derive %d: %d entries over %d tables, want 4 over 3", i, s.Entries, len(s.ShardEpochs))
					return
				}
			}
		}()
	}
	wg.Wait()
}
