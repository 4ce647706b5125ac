package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/flightrec"
	"catcam/internal/oracle"
	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// TestEpochAdvancesAndSharesCleanViews pins the copy-on-write
// granularity of snapshot publication: every update publishes exactly
// one new epoch, the touched subtable gets a fresh immutable view, the
// untouched subtables' views are shared by reference with the previous
// epoch, and so is every chunk of the view table that holds no touched
// subtable (no O(device) copying per update).
func TestEpochAdvancesAndSharesCleanViews(t *testing.T) {
	d, _ := loadedDevice(t, 300)
	s1 := d.snap.Load()
	if len(s1.subs) < 2 {
		t.Fatalf("the view table has %d chunks, want several", len(s1.subs))
	}

	extra := rules.Rule{ID: 1 << 20, Priority: 777,
		SrcPort: rules.PortRange{Lo: 5, Hi: 5}, DstPort: rules.PortRange{Lo: 7, Hi: 7},
		ProtoWildcard: true, Action: 99}
	res, err := d.InsertRule(extra)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	s2 := d.snap.Load()

	if s2.epoch != s1.epoch+1 {
		t.Fatalf("epoch after one insert: %d, want %d", s2.epoch, s1.epoch+1)
	}
	if d.Epoch() != s2.epoch {
		t.Fatalf("Epoch() = %d, want %d", d.Epoch(), s2.epoch)
	}
	shared, changed := 0, 0
	touched := map[int]bool{} // view-table chunks holding a subtable the insert touched
	for _, id := range s2.order {
		switch {
		case id >= len(s1.subs)*viewChunkSize || s1.view(id) == nil:
			touched[id/viewChunkSize] = true
		case s1.view(id) == s2.view(id):
			shared++
		default:
			changed++
			touched[id/viewChunkSize] = true
		}
	}
	if shared == 0 {
		t.Error("no clean subtable views shared across epochs: COW is copying the whole device")
	}
	for c := range min(len(s1.subs), len(s2.subs)) {
		if same := s1.subs[c] == s2.subs[c]; same == touched[c] {
			t.Errorf("view chunk %d shared = %v, holds a touched subtable = %v", c, same, touched[c])
		}
	}
	// A non-reallocating insert touches one subtable; one reallocation
	// adds at most one more.
	if max := 1 + res.Reallocated; changed > max {
		t.Errorf("%d subtable views rebuilt for an insert touching %d subtables", changed, max)
	}
	if res.Subtable < len(s1.subs)*viewChunkSize && s1.view(res.Subtable) != nil && s1.view(res.Subtable) == s2.view(res.Subtable) {
		t.Errorf("subtable %d received the insert but kept its old view", res.Subtable)
	}

	if _, err := d.DeleteRule(extra.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := d.Epoch(); got != s2.epoch+1 {
		t.Fatalf("epoch after delete: %d, want %d", got, s2.epoch+1)
	}
}

// TestEpochDifferentialVsLinear replays a seeded ClassBench trace at
// four churn points and holds every classify entry point (LookupBatch,
// Lookup, LookupHeaderBatch) to swclass.Linear, the one semantic
// reference: it shares no array, matrix or kernel with the device.
// ClassBench gives every rule its own action, so the action also names
// the rule the reference chose.
func TestEpochDifferentialVsLinear(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 41})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	ref := swclass.NewLinear()
	headers := classbench.PacketTrace(rs, 128, 0.9, 42)
	idOf := make(map[int]int, len(rs.Rules))
	for _, r := range rs.Rules {
		if _, dup := idOf[r.Action]; dup {
			t.Fatalf("action %d shared by two rules: it cannot stand for the rule ID", r.Action)
		}
		idOf[r.Action] = r.ID
	}

	compare := func(phase string) {
		t.Helper()
		batch := d.LookupHeaderBatch(headers, nil)
		for i, h := range headers {
			want, wantOK, _ := ref.Lookup(h)
			agree := func(path string, e Entry, ok bool) {
				t.Helper()
				if ok != wantOK || (ok && (e.Action != want || e.Rank.RuleID != idOf[want])) {
					t.Fatalf("%s header %d: %s = rule %d action %d matched %v, swclass.Linear says rule %d action %d matched %v",
						phase, i, path, e.Rank.RuleID, e.Action, ok, idOf[want], want, wantOK)
				}
			}
			e, ok := classifyKey(d, headerKey(d, h))
			agree("LookupBatch", e, ok)
			agree("LookupHeaderBatch", batch[i].Entry, batch[i].OK)
			if action, ok := d.Lookup(h); ok != wantOK || (ok && action != want) {
				t.Fatalf("%s header %d: Lookup = %d/%v, swclass.Linear says %d/%v", phase, i, action, ok, want, wantOK)
			}
		}
	}
	insert := func(r rules.Rule) {
		t.Helper()
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	compare("empty")
	half := len(rs.Rules) / 2
	for _, r := range rs.Rules[:half] {
		insert(r)
	}
	compare("half-loaded")
	for _, r := range rs.Rules[half:] {
		insert(r)
	}
	compare("loaded")
	for i, r := range rs.Rules {
		if i%3 == 0 {
			if _, err := d.DeleteRule(r.ID); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if err := ref.Delete(r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	compare("churned")
}

// answers appends device results to dst as the oracle's (action,
// matched).
func answers(dst []oracle.Answer, rs []LookupResult) []oracle.Answer {
	for _, r := range rs {
		dst = append(dst, oracle.Answer{Action: r.Entry.Action, Matched: r.OK})
	}
	return dst
}

// churn runs one update on d, which must succeed, mirrors it into m and
// records in w the epoch it published.
func churn(t *testing.T, d *Device, m *oracle.Mirror, w *oracle.Window, kind oracle.Kind, r rules.Rule) UpdateResult {
	t.Helper()
	res, err := oracle.Run[UpdateResult](d, kind, r)
	if err == nil {
		err = m.Apply(kind, r, nil)
	}
	if err == nil {
		err = w.Record(d.Epoch())
	}
	if err != nil {
		t.Fatalf("kind %d rule %d: %v", kind, r.ID, err)
	}
	return res
}

// windowReaders starts one reader per classify func, each classifying hs
// with it until the returned stop is called. A reader reads d.Epoch()
// before and after every batch and holds every answer, raced or not, to
// w over that window. stop closes w, waits for the readers, fails the
// test if they checked no batch and logs how many raced a publish; it
// may be deferred and called again.
func windowReaders(t *testing.T, d *Device, w *oracle.Window, hs []rules.Header, classify ...func(dst []LookupResult) []LookupResult) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	var checked, raced atomic.Uint64
	for _, c := range classify {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res []LookupResult
			var got []oracle.Answer
			for !halt.Load() {
				before := d.Epoch()
				res = c(res[:0])
				after := d.Epoch()
				if err := w.Check(hs, answers(got[:0], res), before, after); err != nil {
					t.Error(err)
					return
				}
				checked.Add(1)
				if after != before {
					raced.Add(1)
				}
			}
		}()
	}
	return sync.OnceFunc(func() {
		w.Close()
		halt.Store(true)
		wg.Wait()
		if checked.Load() == 0 {
			t.Error("the readers checked no batch")
		}
		t.Logf("readers: %d batches checked, %d raced a publish, over %d epochs", checked.Load(), raced.Load(), w.Recorded())
	})
}

// TestEpochChurnVsClassify is the readers-vs-writers stress: readers
// classify continuously through every lock-free entry point (plus the
// snapshot-served accessors) while the writer churns rules, each batch
// held to the window, with the auditor and epoch-stamped shadow sampling
// every lookup. Expectations: every answer is swclass.Linear's at an
// epoch its batch could have seen, no invariant violations, no shadow
// divergence (the epoch check must suppress stale-snapshot comparisons,
// not report them), and a consistent device afterwards. Run with -race
// for the memory-model half of the claim.
func TestEpochChurnVsClassify(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 150, Seed: 91})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	aud := flightrec.NewAuditor(nil, nil, 64, nil)
	aud.SetLookupSampleEvery(1)
	sh := flightrec.NewShadow(swclass.NewLinear(), aud, -1)
	sh.SetSampleEvery(1)
	d.AttachAuditor(aud)
	d.AttachShadow(sh)
	headers := classbench.PacketTrace(rs, 64, 0.9, 92)
	half := len(rs.Rules) / 2
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, headers, d.Epoch(), 1+half+30*(len(rs.Rules)-half))
	for _, r := range rs.Rules[:half] {
		churn(t, d, m, w, oracle.Insert, r)
	}

	batch := func(dst []LookupResult) []LookupResult { return d.LookupHeaderBatch(headers, dst) }
	stop := windowReaders(t, d, w, headers, batch, batch,
		func(dst []LookupResult) []LookupResult {
			_, _, _ = d.Stats(), d.Len(), d.ActiveSubtables()
			return d.LookupHeaderBatchTraced(nil, headers, dst)
		},
		func(dst []LookupResult) []LookupResult {
			for _, h := range headers {
				action, ok := d.Lookup(h)
				dst = append(dst, LookupResult{Entry: Entry{Action: action}, OK: ok})
			}
			return dst
		})
	defer stop()
	for iter := 0; iter < 15; iter++ {
		for _, r := range rs.Rules[half:] {
			churn(t, d, m, w, oracle.Insert, r)
		}
		for _, r := range rs.Rules[half:] {
			churn(t, d, m, w, oracle.Delete, r)
		}
	}
	stop()

	if got, reason := sh.Desynced(); got {
		t.Fatalf("shadow desynced during rule-level churn: %s", reason)
	}
	if n := aud.TotalViolations(); n != 0 {
		t.Fatalf("%d invariant violations under churn-vs-classify", n)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestModifyRefusedChurnVsClassify races readers against a writer whose
// modifies of one rule alternately fit and are refused. The rule and a
// lower-priority catch-all both match the readers' header, on a device
// of one 4-slot subtable with one slot free: a 1-row version fits, and a
// 4-row one meets ErrFull before the old version is deleted. Every
// answer must be the reference's at an epoch its batch could have seen,
// the writer must find the installed version answering after every
// modify, refused or not, so no reader ever sees the catch-all, and the
// shadow, comparing every lookup, stays in step. Run with -race.
func TestModifyRefusedChurnVsClassify(t *testing.T) {
	d := NewDevice(Config{Subtables: 1, SubtableCapacity: 4, KeyWidth: 160})
	aud := flightrec.NewAuditor(nil, nil, 64, nil)
	aud.SetLookupSampleEvery(1)
	sh := flightrec.NewShadow(swclass.NewLinear(), aud, -1)
	sh.SetSampleEvery(1)
	d.AttachAuditor(aud)
	d.AttachShadow(sh)
	rule := func(id, prio int, src uint32) rules.Rule {
		return rules.Rule{ID: id, Priority: prio, Action: id, SrcIP: rules.Prefix{Addr: src, Len: 8},
			SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(), ProtoWildcard: true}
	}
	low := rule(1, 10, 0)
	low.SrcIP.Len = 0
	hs := []rules.Header{{SrcIP: 0x0A010203}}
	const modifies = 1000
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, hs, d.Epoch(), 1+3+modifies)
	for _, r := range []rules.Rule{low, rule(2, 40000, 0x0A000000), rule(3, 20, 0x0B000000)} {
		churn(t, d, m, w, oracle.Insert, r)
	}

	stop := windowReaders(t, d, w, hs,
		func(dst []LookupResult) []LookupResult { return d.LookupHeaderBatch(hs, dst) },
		func(dst []LookupResult) []LookupResult {
			action, ok := d.Lookup(hs[0])
			return append(dst, LookupResult{Entry: Entry{Action: action}, OK: ok})
		})
	defer stop()
	for i := 0; i < modifies && !t.Failed(); i++ {
		mod := rule(2, 40000, 0x0A000000)
		mod.Action = 100 + i
		var want error
		if i%2 == 1 {
			mod.DstPort, want = rules.PortRange{Lo: 1, Hi: 6}, ErrFull // 4 rows
		}
		_, err := d.ModifyRule(2, mod)
		if !errors.Is(err, want) {
			t.Fatalf("modify %d: %v, want %v", i, err, want)
		}
		for _, e := range []error{m.Apply(oracle.Modify, mod, err), w.Record(d.Epoch())} {
			if e != nil {
				t.Fatalf("modify %d: %v", i, e)
			}
		}
		if action, ok := d.Lookup(hs[0]); !ok || action != m.Live[2].Action {
			t.Fatalf("modify %d (err %v): the header answers %d,%v, want the installed version's %d", i, err, action, ok, m.Live[2].Action)
		}
		runtime.Gosched() // on one P, let the readers in between modifies
	}
	stop()

	if got, reason := sh.Desynced(); got {
		t.Fatalf("shadow desynced: %s", reason)
	}
	if n := aud.TotalViolations(); n != 0 {
		t.Fatalf("%d invariant violations under refused modifies", n)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestFilterRechoiceChurnVsClassify races readers against a writer
// whose load crosses two doubling thresholds of the entry count and
// whose deletes then cross a halving one, so the filter's key positions
// are re-chosen (every match array recounted, every active view
// republished) while lookups are in flight. Every reader batch is held
// to the window; after every re-choice the writer also classifies the
// batch itself, on the epoch it just published, and CheckInvariant
// confirms each published view carries its snapshot's positions. Run
// with -race.
func TestFilterRechoiceChurnVsClassify(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 240, Seed: 93})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	aud := flightrec.NewAuditor(nil, nil, 64, nil)
	d.AttachAuditor(aud)
	headers := classbench.PacketTrace(rs, 64, 0.9, 94)
	eighth := len(rs.Rules) / 8
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, headers, d.Epoch(), 1+2*len(rs.Rules))
	for _, r := range rs.Rules[:eighth] {
		churn(t, d, m, w, oracle.Insert, r)
	}

	batch := func(dst []LookupResult) []LookupResult { return d.LookupHeaderBatch(headers, dst) }
	stop := windowReaders(t, d, w, headers, batch, batch, batch)
	defer stop()

	choices, moved := 0, 0
	d.mu.Lock()
	selAt, sel := d.selAt, d.sel
	d.mu.Unlock()
	check := func(phase string) {
		t.Helper()
		d.mu.Lock()
		at, now := d.selAt, d.sel
		d.mu.Unlock()
		if at == selAt {
			return
		}
		choices++
		if now != sel {
			moved++
		}
		selAt, sel = at, now
		if err := d.CheckInvariant(); err != nil {
			t.Fatalf("%s, after re-choosing at %d entries: %v", phase, at, err)
		}
		e := d.Epoch()
		if err := w.Check(headers, answers(nil, d.LookupHeaderBatch(headers, nil)), e, e); err != nil {
			t.Fatalf("%s, after re-choosing at %d entries: %v", phase, at, err)
		}
	}
	for _, r := range rs.Rules[eighth:] {
		churn(t, d, m, w, oracle.Insert, r)
		check("load")
	}
	loadChoices := choices
	for _, r := range rs.Rules[:len(rs.Rules)*7/8] {
		churn(t, d, m, w, oracle.Delete, r)
		check("delete")
	}
	stop()

	if loadChoices < 2 || choices == loadChoices || moved == 0 {
		t.Fatalf("%d re-choices while loading, %d while deleting, %d moved the positions: want >= 2, >= 1, >= 1",
			loadChoices, choices-loadChoices, moved)
	}
	if n := aud.TotalViolations(); n != 0 {
		t.Fatalf("%d violations under filter re-choices", n)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
