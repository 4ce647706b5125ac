package flowtable

import (
	"testing"

	"catcam/internal/rules"
	"catcam/internal/trace"
)

// TestLookupSpansCarryTable: with no instrument attached, every
// device_lookup and sram_kernel span of a traced batch carries the ID of
// the table whose device emitted it — on a device-backed table and on a
// cluster-backed one, each of whose shards also carries its shard ID.
func TestLookupSpansCarryTable(t *testing.T) {
	p, err := NewPipeline([]TableConfig{
		{ID: 1, Device: smallDev(), Miss: MissPolicy{Continue: true}},
		{ID: 5, Device: smallDev(), Miss: MissPolicy{MissAction: Drop}, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInstall(t, p, 1, FlowRule{Rule: anyRule(1, 1), Instruction: Goto(5)})
	// One catch-all per shard of table 5 (the default bounds split the
	// priority range at 32768), so the focus key is searched on both.
	mustInstall(t, p, 5, FlowRule{Rule: anyRule(2, 10), Instruction: Terminal(7)})
	mustInstall(t, p, 5, FlowRule{Rule: anyRule(3, 40000), Instruction: Terminal(8)})

	tr := &trace.Trace{ID: 1}
	hs := []rules.Header{{SrcIP: 0x0A000001}, {SrcIP: 0x0B000002}}
	if got := p.ClassifyBatch(tr, hs, nil); got[0] != 8 || got[1] != 8 {
		t.Fatalf("actions %v, want [8 8]", got)
	}
	wantTable := map[int]int{-1: 1, 0: 5, 1: 5} // by shard
	seen := map[[2]int]int{}                    // (stage, shard) -> spans
	for _, sp := range tr.Spans {
		if sp.Stage != trace.StageDeviceLookup && sp.Stage != trace.StageSRAMKernel {
			continue
		}
		want, ok := wantTable[sp.Shard]
		if !ok || sp.Table != want {
			t.Fatalf("%s span on shard %d carries table %d, want %d", sp.Stage, sp.Shard, sp.Table, want)
		}
		seen[[2]int{int(sp.Stage), sp.Shard}]++
	}
	for shard := range wantTable {
		for _, st := range []trace.Stage{trace.StageDeviceLookup, trace.StageSRAMKernel} {
			if seen[[2]int{int(st), shard}] == 0 {
				t.Fatalf("no %s span from shard %d: %v", st, shard, seen)
			}
		}
	}
}
