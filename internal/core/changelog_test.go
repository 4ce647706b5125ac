package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"catcam/internal/rules"
	"catcam/internal/ternary"
)

// revalHeader is the flow the revalidation tests cache an answer for.
var revalHeader = rules.Header{SrcIP: 0x0A000001, DstIP: 0x0B000001, SrcPort: 1000, DstPort: 3, Proto: 6}

var (
	revalIn  = rules.Prefix{Addr: 0x0A000000, Len: 8} // holds revalHeader's source
	revalOut = rules.Prefix{Addr: 0x0C000000, Len: 8} // does not
)

// revalRule is a rule over src with every other field a wildcard.
func revalRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{ID: id, Priority: prio, SrcIP: src, SrcPort: rules.FullPortRange(),
		DstPort: rules.FullPortRange(), ProtoWildcard: true, Action: 1000 + id}
}

// TestRevalidate caches one answer for revalHeader, makes one change,
// and asks whether the answer survives it. The cached winner is rule 10
// at priority 100, above rule 20 at 50, both matching; in the no-match
// cases neither is installed. Whenever Revalidate keeps an answer, a
// fresh lookup must give that answer.
func TestRevalidate(t *testing.T) {
	insert := func(r rules.Rule) func(*Device) error {
		return func(d *Device) error { _, err := d.InsertRule(r); return err }
	}
	del := func(id int) func(*Device) error {
		return func(d *Device) error { _, err := d.DeleteRule(id); return err }
	}
	wide := revalRule(30, 200, revalIn)
	wide.DstPort = rules.PortRange{Lo: 1, Hi: 6} // 4 entries: 2 fit, the third fails and rolls back
	recast := revalRule(10, 100, revalIn)
	recast.Action = 7
	word := ternary.NewWord(rules.TupleBits) // all wildcards: it matches every header

	cases := []struct {
		name    string
		noMatch bool  // the cached answer is "no rule matched"
		tiny    bool  // a 1×4 device: the two installed rules leave 2 slots
		wantErr error // what the change returns
		change  func(*Device) error
		keep    bool
	}{
		{name: "non-matching insert", change: insert(revalRule(30, 200, revalOut)), keep: true},
		{name: "matching insert, higher priority", change: insert(revalRule(30, 101, revalIn))},
		{name: "matching insert, equal priority, larger ID", change: insert(revalRule(30, 100, revalIn))},
		{name: "matching insert, equal priority, smaller ID", change: insert(revalRule(5, 100, revalIn)), keep: true},
		{name: "matching insert, lower priority", change: insert(revalRule(30, 99, revalIn)), keep: true},
		{name: "insert with an ID past 32 bits", change: insert(revalRule(1<<40, 1, revalOut))},
		{name: "delete the winner", change: del(10)},
		{name: "delete another rule", change: del(20), keep: true},
		{name: "modify the winner, same ID", change: func(d *Device) error { _, err := d.ModifyRule(10, recast); return err }},
		{name: "modify the winner away from the flow", change: func(d *Device) error {
			_, err := d.ModifyRule(10, revalRule(10, 100, revalOut))
			return err
		}},
		{name: "insert word", change: func(d *Device) error { _, err := d.InsertWord(word, 1, 40, 1); return err }},
		{name: "no match, then a matching insert", noMatch: true, change: insert(revalRule(30, 1, revalIn))},
		{name: "no match, then a non-matching insert", noMatch: true, change: insert(revalRule(30, 1, revalOut)), keep: true},
		{name: "no match, then a delete", noMatch: true, change: del(30), wantErr: ErrNotFound, keep: true},
		{name: "failed insert rolled back", tiny: true, change: insert(wide), wantErr: ErrFull, keep: true},
		{name: "failed delete", change: del(99), wantErr: ErrNotFound, keep: true},
		{name: "trace labels", change: func(d *Device) error { d.SetTraceLabels(3, -1); return nil }, keep: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160}
			if tc.tiny {
				cfg = Config{Subtables: 1, SubtableCapacity: 4, KeyWidth: 160}
			}
			d := NewDevice(cfg)
			if !tc.noMatch {
				for _, r := range []rules.Rule{revalRule(10, 100, revalIn), revalRule(20, 50, revalIn)} {
					if _, err := d.InsertRule(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			res := d.LookupHeaderBatch([]rules.Header{revalHeader}, nil)[0]
			if res.OK == tc.noMatch || (res.OK && res.Entry.Rank.RuleID != 10) {
				t.Fatalf("cached answer %+v", res)
			}
			stamp := d.Epoch()
			if err := tc.change(d); !errors.Is(err, tc.wantErr) {
				t.Fatalf("change returned %v, want %v", err, tc.wantErr)
			}
			if d.Epoch() != stamp+1 {
				t.Fatalf("the change published %d epochs, want 1", d.Epoch()-stamp)
			}
			keep := d.Revalidate(revalHeader, stamp, d.Epoch(), res.Entry.Rank, res.OK)
			if keep != tc.keep {
				t.Fatalf("Revalidate = %v, want %v", keep, tc.keep)
			}
			now := d.LookupHeaderBatch([]rules.Header{revalHeader}, nil)[0]
			if keep && (now.OK != res.OK || now.Entry.Action != res.Entry.Action) {
				t.Fatalf("revalidated %+v, but the device now answers %+v", res, now)
			}
			if !d.Revalidate(revalHeader, d.Epoch(), d.Epoch(), now.Entry.Rank, now.OK) {
				t.Fatal("an answer at the current epoch did not revalidate")
			}
		})
	}
}

// TestRevalidateWindow: an answer revalidates across K epochs that
// changed nothing, not across K+1, and never from a stamp after the
// epoch asked about.
func TestRevalidateWindow(t *testing.T) {
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160})
	if _, err := d.InsertRule(revalRule(10, 100, revalIn)); err != nil {
		t.Fatal(err)
	}
	res := d.LookupHeaderBatch([]rules.Header{revalHeader}, nil)[0]
	stamp := d.Epoch()
	for i := 0; i < changeLogSize; i++ {
		d.SetTraceLabels(-1, -1)
	}
	if !d.Revalidate(revalHeader, stamp, d.Epoch(), res.Entry.Rank, true) {
		t.Fatalf("a stamp %d epochs old did not revalidate", changeLogSize)
	}
	d.SetTraceLabels(-1, -1)
	if d.Revalidate(revalHeader, stamp, d.Epoch(), res.Entry.Rank, true) {
		t.Fatalf("a stamp %d epochs old revalidated", changeLogSize+1)
	}
	if d.Revalidate(revalHeader, d.Epoch(), d.Epoch()-1, res.Entry.Rank, true) {
		t.Fatal("a stamp after the epoch revalidated")
	}
}

// TestRevalidateTornSlot: a record whose slot is being overwritten, or
// already holds a later epoch's record, is missing, and so the answer
// is stale.
func TestRevalidateTornSlot(t *testing.T) {
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 4, KeyWidth: 160})
	if _, err := d.InsertRule(revalRule(10, 100, revalIn)); err != nil {
		t.Fatal(err)
	}
	res := d.LookupHeaderBatch([]rules.Header{revalHeader}, nil)[0]
	stamp := d.Epoch()
	d.SetTraceLabels(-1, -1)
	e := d.Epoch()
	s := &d.log[e%changeLogSize]
	whole := s.seq.Load()
	for _, seq := range []uint64{whole | 1, logStamp(e + changeLogSize), logStamp(e+changeLogSize) | 1} {
		s.seq.Store(seq)
		if d.Revalidate(revalHeader, stamp, e, res.Entry.Rank, true) {
			t.Fatalf("revalidated across a slot whose seq reads %#x", seq)
		}
	}
	s.seq.Store(whole)
	if !d.Revalidate(revalHeader, stamp, e, res.Entry.Rank, true) {
		t.Fatal("the restored slot does not revalidate")
	}
}

// TestChangeLogReadNeverTorn races reads against a writer that keeps
// overwriting one slot with ever later epochs' records, alternately a
// and b. Every packed word of the two differs, so a read that mixed
// them would return neither: a read returns its epoch's record whole,
// or nothing.
// Run with -race.
func TestChangeLogReadNeverTorn(t *testing.T) {
	var l changeLog
	a := changeRecord{flags: changeAdded | changeRemoved, removed: 1, added: rules.Rule{
		ID: 2, Priority: -3, SrcIP: rules.Prefix{Addr: 0x0A000000, Len: 8}, DstIP: rules.Prefix{Addr: 0x0B000000, Len: 16},
		SrcPort: rules.PortRange{Lo: 1, Hi: 2}, DstPort: rules.PortRange{Lo: 3, Hi: 4}, Proto: 6}}
	b := changeRecord{flags: changeAdded | changeProtoAny, removed: 5, added: rules.Rule{
		ID: 6, Priority: 7, SrcIP: rules.Prefix{Addr: 0x0C000000, Len: 24}, DstIP: rules.Prefix{Addr: 0x0D000000, Len: 32},
		SrcPort: rules.PortRange{Lo: 8, Hi: 9}, DstPort: rules.PortRange{Lo: 10, Hi: 11}, Proto: 17, ProtoWildcard: true}}
	// Round j writes epoch 5 + j·K: a when j is even, b when odd.
	epoch := func(j uint64) uint64 { return 5 + j*changeLogSize }
	want := func(j uint64) changeRecord { return [2]changeRecord{a, b}[j%2] }
	l.write(epoch(0), a)
	if got, ok := l.read(epoch(0)); !ok || got != a.pack() {
		t.Fatalf("read = %+v, %v; want %+v", got, ok, a.pack())
	}
	var stop atomic.Bool
	var round atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := uint64(1); !stop.Load(); j++ {
			l.write(epoch(j), want(j))
			round.Store(j)
		}
	}()
	defer func() { stop.Store(true); <-done }()
	// Read until reads have found the slot both whole and mid-overwrite
	// a hundred times each, or for at most 250ms.
	var whole, missing int
	for start := time.Now(); (whole < 100 || missing < 100) && time.Since(start) < 250*time.Millisecond; {
		j := round.Load()
		got, ok := l.read(epoch(j))
		switch {
		case ok && got != want(j).pack():
			t.Fatalf("read of round %d returned a torn record %+v", j, got)
		case ok:
			whole++
		default:
			missing++
		}
	}
	t.Logf("%d reads whole, %d missing, over %d rewrites", whole, missing, round.Load())
}

// TestChangeWordsInvalidates holds the packed test to the rule-level
// one it stands for: over random records, winners and headers drawn
// from a small space (so that matches, rank ties and removals of the
// winner all happen), invalidates must say exactly what Rule.Matches
// and Rule.Before say of the unpacked record.
func TestChangeWordsInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := func() rules.Prefix {
		return rules.Prefix{Addr: uint32(rng.Intn(4)) << 30, Len: []int{0, 1, 2, 32}[rng.Intn(4)]}.Canonical()
	}
	ports := func() rules.PortRange {
		lo := uint16(rng.Intn(4))
		return rules.PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(3))}
	}
	counts := map[bool]int{}
	for i := 0; i < 200000; i++ {
		var c changeRecord
		if rng.Intn(2) == 0 {
			c.add(rules.Rule{ID: rng.Intn(4) - 1, Priority: rng.Intn(4) - 1, SrcIP: prefix(), DstIP: prefix(),
				SrcPort: ports(), DstPort: ports(), Proto: uint8(rng.Intn(2)), ProtoWildcard: rng.Intn(2) == 0})
		}
		if rng.Intn(2) == 0 {
			c.remove(rng.Intn(4) - 1)
		}
		if rng.Intn(16) == 0 {
			c.opaque()
		}
		h := rules.Header{SrcIP: uint32(rng.Intn(4)) << 30, DstIP: uint32(rng.Intn(4))<<30 | uint32(rng.Intn(2)),
			SrcPort: uint16(rng.Intn(6)), DstPort: uint16(rng.Intn(6)), Proto: uint8(rng.Intn(2))}
		winner := rules.Rule{ID: rng.Intn(4) - 1, Priority: rng.Intn(4) - 1}
		ok := rng.Intn(4) != 0

		want := c.flags&changeOpaque != 0 ||
			ok && c.flags&changeRemoved != 0 && c.removed == winner.ID ||
			c.flags&changeAdded != 0 && c.added.Matches(h) && !(ok && c.added.Before(winner))
		got := c.pack().invalidates(h, Rank{Priority: winner.Priority, RuleID: winner.ID}, ok)
		if got != want {
			t.Fatalf("record %+v, header %+v, winner %d/%d matched %v: invalidates = %v, the rules say %v",
				c, h, winner.Priority, winner.ID, ok, got, want)
		}
		counts[got]++
	}
	if counts[true] < 1000 || counts[false] < 1000 {
		t.Fatalf("the draw is lopsided: %v", counts)
	}
}
