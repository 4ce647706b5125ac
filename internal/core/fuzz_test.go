package core

import (
	"errors"
	"testing"

	"catcam/internal/oracle"
	"catcam/internal/rules"
)

// streamEdges records which capacity edges one op stream reached.
type streamEdges struct {
	evicted    bool // an insert found its target subtable full and evicted its maximum
	maxDeleted bool // a delete removed a subtable's maximum
	released   bool // a delete emptied a subtable back into the free pool
	full       bool // ErrFull
	rolledBack bool // an ErrFull insert had already stored entries to undo
	notFound   bool // ErrNotFound
	// modifyRefused: a modify of a live rule returned ErrFull, and the
	// old version must still answer.
	modifyRefused bool
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
	m := oracle.NewMirror()
	entries := 0 // what the installed rules expand to
	probes := oracle.Probes()
	var batch []LookupResult

	// No t.Helper here: it walks the stack on each of ~20 calls an op,
	// and the message names the op and the entry point itself.
	agree := func(op int, path string, h rules.Header, e Entry, ok bool) {
		want, wantOK, _ := m.Ref.Lookup(h)
		if ok != wantOK || (ok && (e.Action != want || e.Rank.RuleID != want%oracle.IDs)) {
			t.Fatalf("op %d: %s(%+v) = rule %d action %d matched %v, swclass.Linear says rule %d action %d matched %v",
				op, path, h, e.Rank.RuleID, e.Action, ok, want%oracle.IDs, want, wantOK)
		}
	}

	ops := oracle.Decode(data)
	updates := 0
	for op, o := range ops {
		if o.Kind == oracle.Lookup {
			h := o.Header
			e, ok := classifyKey(d, headerKey(d, h))
			agree(op, "LookupBatch", h, e, ok)
			action, ok := d.Lookup(h)
			agree(op, "Lookup", h, Entry{Rank: e.Rank, Action: action}, ok)
			continue // nothing changed: the probes and invariants below hold from the last op
		}
		kind, r := m.Kind(o), o.Rule
		old, isLive := m.Live[r.ID]
		active, before, stored := d.ActiveSubtables(), d.Stats(), d.Len()
		if isLive { // a delete or modify: does it remove a subtable's maximum?
			d.mu.Lock()
			for _, l := range d.locs[r.ID] {
				if rank, _ := d.subs[l.st].Rank(l.slot); rank == d.maxOf[l.st] {
					edges.maxDeleted = true
				}
			}
			d.mu.Unlock()
		}
		_, err := oracle.Run[UpdateResult](d, kind, r)
		switch {
		case !isLive && kind != oracle.Insert:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: rule %d is not installed, got %v, want ErrNotFound", op, r.ID, err)
			}
			edges.notFound = true
		case errors.Is(err, ErrFull) && kind != oracle.Delete:
			edges.full = true
			edges.rolledBack = edges.rolledBack || kind == oracle.Insert && d.Stats().Inserts > before.Inserts
			edges.modifyRefused = edges.modifyRefused || kind == oracle.Modify
		case err != nil:
			t.Fatalf("op %d: kind %d rule %v: %v", op, kind, r, err)
		case kind == oracle.Delete:
			edges.released = edges.released || d.ActiveSubtables() < active
		}
		if err != nil && d.Len() != stored {
			t.Fatalf("op %d: kind %d rule %d failed with %v but the device went from %d to %d entries", op, kind, r.ID, err, stored, d.Len())
		}
		if isLive {
			entries -= old.ExpansionCountWidth(d.Config().KeyWidth)
		}
		if err := m.Apply(kind, r, err); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if now, in := m.Live[r.ID]; in {
			entries += now.ExpansionCountWidth(d.Config().KeyWidth)
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
// lookup entry point, the stored-entry count (one an update that
// returned an error left as it was), and the modelled cycle
// identity UpdateCycles = 3·direct + 5·realloc + 1·deletes; and every
// invariantEvery-th update and at the end, CheckInvariant. ErrFull and
// ErrNotFound are outcomes, never panics. The seed corpus is
// testdata/fuzz/FuzzDeviceVsLinear.
func FuzzDeviceVsLinear(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runStream(t, data) })
}

// TestStreamSeedsReachEdges keeps the seed corpus honest: between them
// the seeds must reach a full subtable and the eviction it forces, a
// delete of a subtable's maximum, a released subtable, a full device
// whose failed insert rolls entries back, and a modify of a live rule
// refused with ErrFull, after which the probes find the old version.
func TestStreamSeedsReachEdges(t *testing.T) {
	var all streamEdges
	seeds, err := oracle.Seeds("testdata/fuzz/FuzzDeviceVsLinear")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		e := runStream(t, data)
		t.Logf("%s: %+v", name, e)
		all.evicted = all.evicted || e.evicted
		all.maxDeleted = all.maxDeleted || e.maxDeleted
		all.released = all.released || e.released
		all.full = all.full || e.full
		all.notFound = all.notFound || e.notFound
		all.rolledBack = all.rolledBack || e.rolledBack
		all.modifyRefused = all.modifyRefused || e.modifyRefused
	}
	if want := (streamEdges{evicted: true, maxDeleted: true, released: true, full: true, notFound: true, rolledBack: true, modifyRefused: true}); all != want {
		t.Fatalf("seed corpus reaches %+v, want %+v", all, want)
	}
}
