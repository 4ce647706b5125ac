package telemetry

import "testing"

func TestRingBasics(t *testing.T) {
	r := NewEventRing(8)
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("empty ring snapshot has %d events", len(got))
	}
	r.Emit(Event{Kind: EvInsert, RuleID: 1, Cycles: 3})
	r.Emit(Event{Kind: EvDelete, RuleID: 2, Cycles: 1})
	got := r.Snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot has %d events, want 2", len(got))
	}
	if got[0].Seq != 1 || got[0].Kind != EvInsert || got[1].Seq != 2 || got[1].Kind != EvDelete {
		t.Errorf("snapshot order/content wrong: %+v", got)
	}
	if r.Total() != 2 || r.Cap() != 8 {
		t.Errorf("Total=%d Cap=%d, want 2, 8", r.Total(), r.Cap())
	}
}

func TestRingReset(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: EvInsert})
	}
	r.Reset()
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("snapshot after reset has %d events", len(got))
	}
	// Sequence numbers keep advancing across a reset.
	r.Emit(Event{Kind: EvDelete})
	got := r.Snapshot()
	if len(got) != 1 || got[0].Seq != 7 {
		t.Errorf("post-reset snapshot = %+v, want one event with seq 7", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvInsert, EvDelete, EvModify, EvRealloc, EvFreshSubtable, EvChain, EvClassify}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
