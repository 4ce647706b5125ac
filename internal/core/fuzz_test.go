package core

import (
	"errors"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// streamEdges records which capacity edges one op stream reached.
type streamEdges struct {
	evicted    bool // an insert found its target subtable full and evicted its maximum
	maxDeleted bool // a delete removed a subtable's maximum
	released   bool // a delete emptied a subtable back into the free pool
	full       bool // ErrFull
	rolledBack bool // an ErrFull insert had already stored entries to undo
	notFound   bool // ErrNotFound
}

// invariantEvery spaces runStream's CheckInvariant calls: every k-th
// update and after the last one. The walk was 14% of a stream's time
// (the 20-probe batch is the largest share, then the reference). The
// winner, entry-count and cycle checks still run after every update,
// so a wrong answer still names its op; a structural fault that answers
// correctly is reported at most k updates late.
const invariantEvery = 8

// runStream applies the op stream to a 16×16 device and to
// swclass.Linear and holds the device to the reference after every op.
func runStream(t *testing.T, data []byte) streamEdges {
	t.Helper()
	var edges streamEdges
	d := NewDevice(Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	ref := swclass.NewLinear()
	live := map[int]rules.Rule{}
	entries := 0 // what the installed rules expand to
	probes := streamProbes()
	var batch []LookupResult

	// No t.Helper here: it walks the stack on each of ~20 calls an op,
	// and the message names the op and the entry point itself.
	agree := func(op int, path string, h rules.Header, e Entry, ok bool) {
		want, wantOK, _ := ref.Lookup(h)
		if ok != wantOK || (ok && (e.Action != want || e.Rank.RuleID != want%streamIDs)) {
			t.Fatalf("op %d: %s(%+v) = rule %d action %d matched %v, swclass.Linear says rule %d action %d matched %v",
				op, path, h, e.Rank.RuleID, e.Action, ok, want%streamIDs, want, wantOK)
		}
	}
	remove := func(op, id int) {
		t.Helper()
		d.mu.Lock()
		for _, l := range d.locs[id] {
			if r, _ := d.subs[l.st].Rank(l.slot); r == d.maxOf[l.st] {
				edges.maxDeleted = true
			}
		}
		d.mu.Unlock()
		entries -= live[id].ExpansionCount()
		delete(live, id)
		if err := ref.Delete(id); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	install := func(op int, r rules.Rule, err error) {
		t.Helper()
		switch {
		case err == nil:
			live[r.ID] = r
			entries += r.ExpansionCount()
			if err := ref.Insert(r); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case errors.Is(err, ErrFull):
			edges.full = true
		default:
			t.Fatalf("op %d: insert %v: %v", op, r, err)
		}
	}

	ops := decodeStream(data)
	updates := 0
	for op, o := range ops {
		kind, r := o.kind, o.rule
		_, isLive := live[r.ID]
		if kind == opInsert && isLive {
			kind = opModify
		}
		active, before := d.ActiveSubtables(), d.Stats()
		switch kind {
		case opInsert:
			_, err := d.InsertRule(r)
			install(op, r, err)
			if err != nil && d.Stats().Inserts > before.Inserts {
				edges.rolledBack = true
			}
		case opDelete, opModify:
			if isLive {
				remove(op, r.ID)
			}
			var err error
			if kind == opDelete {
				_, err = d.DeleteRule(r.ID)
			} else {
				_, err = d.ModifyRule(r.ID, r)
			}
			if !isLive {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: rule %d is not installed, got %v, want ErrNotFound", op, r.ID, err)
				}
				edges.notFound = true
			} else if kind == opDelete {
				if err != nil {
					t.Fatalf("op %d: delete %d: %v", op, r.ID, err)
				}
				edges.released = edges.released || d.ActiveSubtables() < active
			} else {
				install(op, r, err) // on ErrFull the old version is gone and the new one is not in
			}
		case opLookup:
			h := o.header
			e, ok := classifyKey(d, rules.EncodeHeader(h))
			agree(op, "LookupBatch", h, e, ok)
			action, ok := d.Lookup(h)
			agree(op, "Lookup", h, Entry{Rank: e.Rank, Action: action}, ok)
			continue // nothing changed: the probes and invariants below hold from the last op
		}

		if updates++; updates%invariantEvery == 0 {
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		st := d.Stats()
		if want := 3*st.DirectInserts + 5*st.ReallocInserts + st.Deletes; st.UpdateCycles != want {
			t.Fatalf("op %d: UpdateCycles = %d, want 3·%d + 5·%d + 1·%d = %d",
				op, st.UpdateCycles, st.DirectInserts, st.ReallocInserts, st.Deletes, want)
		}
		edges.evicted = edges.evicted || st.ReallocInserts > before.ReallocInserts
		if d.Len() != entries {
			t.Fatalf("op %d: device stores %d entries, the installed rules expand to %d", op, d.Len(), entries)
		}
		batch = d.LookupHeaderBatch(probes, batch[:0])
		for i, h := range probes {
			agree(op, "LookupHeaderBatch", h, batch[i].Entry, batch[i].OK)
		}
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatalf("after %d ops: %v", len(ops), err)
	}
	return edges
}

// FuzzDeviceVsLinear drives random insert/delete/modify/lookup streams
// through a device small enough to fill and checks, after every op:
// the same winner (action, matched, rule ID) as swclass.Linear on every
// lookup entry point, the stored-entry count, and the modelled cycle
// identity UpdateCycles = 3·direct + 5·realloc + 1·deletes; and every
// invariantEvery-th update and at the end, CheckInvariant. ErrFull and
// ErrNotFound are outcomes, never panics. The seed corpus is
// testdata/fuzz/FuzzDeviceVsLinear.
func FuzzDeviceVsLinear(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runStream(t, data) })
}

// TestStreamSeedsReachEdges keeps the seed corpus honest: between them
// the seeds must reach a full subtable and the eviction it forces, a
// delete of a subtable's maximum, a released subtable, and a full
// device whose failed insert rolls entries back.
func TestStreamSeedsReachEdges(t *testing.T) {
	var all streamEdges
	for name, data := range streamSeeds(t, "testdata/fuzz/FuzzDeviceVsLinear") {
		e := runStream(t, data)
		t.Logf("%s: %+v", name, e)
		all.evicted = all.evicted || e.evicted
		all.maxDeleted = all.maxDeleted || e.maxDeleted
		all.released = all.released || e.released
		all.full = all.full || e.full
		all.notFound = all.notFound || e.notFound
		all.rolledBack = all.rolledBack || e.rolledBack
	}
	if want := (streamEdges{evicted: true, maxDeleted: true, released: true, full: true, notFound: true, rolledBack: true}); all != want {
		t.Fatalf("seed corpus reaches %+v, want %+v", all, want)
	}
}
