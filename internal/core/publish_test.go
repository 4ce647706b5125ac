package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/flightrec"
	"catcam/internal/oracle"
	"catcam/internal/rules"
	"catcam/internal/sram"
)

// TestPublishSharesUnchangedParts pins the copy-on-write granularity
// inside a rebuilt view: the match view's order and lines, the priority
// matrix and each of its chunks, and each metadata chunk are shared by
// pointer with the previous epoch when an update left them equal, and
// so is the interval sequence. Subtables are 256 slots, so a priority
// matrix has chunks that a row and column write both miss.
func TestPublishSharesUnchangedParts(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 100, Seed: 77})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 256, KeyWidth: 160})
	// slotOf returns the slot a one-entry rule is stored at.
	slotOf := func(id int) int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.locs[id][0].slot
	}
	// checkPrioChunks asserts that a direct insert into slot of
	// subtable id copied no priority chunk outside the slot's row and
	// column.
	checkPrioChunks := func(before, after *snapshot, id, slot int) {
		t.Helper()
		p0, p1 := before.subs[id].prio, after.subs[id].prio
		for r := 0; r < p1.Rows(); r++ {
			for c := 0; c < p1.Rows(); c++ {
				if r/sram.ChunkRows != slot/sram.ChunkRows && c/64 != slot/64 && !p1.SharesChunk(p0, r, c) {
					t.Fatalf("insert into slot %d of subtable %d copied the priority chunk of (%d, %d)", slot, id, r, c)
				}
			}
		}
	}
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatalf("load: %v", err)
		}
	}

	// The victim is a one-entry rule stored below its subtable's maximum
	// beside other entries: deleting it writes neither the priority
	// matrix nor a maximum, and re-inserting it lands back in the hole.
	var victim rules.Rule
	var at location
	found := false
	d.mu.Lock()
	for _, r := range rs.Rules {
		locs := d.locs[r.ID]
		if len(locs) != 1 {
			continue
		}
		st := d.subs[locs[0].st]
		if rank, _ := st.Rank(locs[0].slot); st.Count() > 1 && rank != d.maxOf[locs[0].st] {
			victim, at, found = r, locs[0].location, true
			break
		}
	}
	d.mu.Unlock()
	if !found {
		t.Fatal("no one-entry rule below its subtable's maximum")
	}

	s1 := d.snap.Load()
	if _, err := d.DeleteRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	s2 := d.snap.Load()
	v1, v2 := s1.subs[at.st], s2.subs[at.st]
	if v1 == v2 || v1.match == v2.match {
		t.Fatal("the delete's subtable kept its old view")
	}
	if v1.prio != v2.prio {
		t.Error("a delete copied the priority matrix it never writes")
	}
	if !v2.match.SharesSearchState(v1.match) {
		t.Error("a delete copied the match view's order or lines, which it leaves as they were")
	}
	for c := range v2.meta {
		if shared := v1.meta[c] == v2.meta[c]; shared != (c != at.slot/metaChunk) {
			t.Errorf("after deleting slot %d, metadata chunk %d shared = %v", at.slot, c, shared)
		}
	}
	if s1.iv != s2.iv {
		t.Error("a delete below the maximum copied the interval sequence")
	}

	res, err := d.InsertRule(victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.FreshTables != 0 || res.Reallocated != 0 || res.Subtable != at.st {
		t.Fatalf("re-insert %+v: want a direct insert into subtable %d", res, at.st)
	}
	s3 := d.snap.Load()
	if s3.iv != s2.iv {
		t.Error("an insert that assigned no subtable and moved no maximum copied the interval sequence")
	}
	checkPrioChunks(s2, s3, at.st, slotOf(victim.ID))

	// Ranks above every interval extend the top subtable until it is
	// full, then take a fresh one. Each of them beats every stored
	// entry, so its writes change the matrix.
	copied := 0
	for i := 0; ; i++ {
		before := d.snap.Load()
		r := rules.Rule{ID: 1<<20 + i, Priority: 1<<20 + i, ProtoWildcard: true, Action: i}
		res, err := d.InsertRule(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.FreshTables == 0 {
			after := d.snap.Load()
			checkPrioChunks(before, after, res.Subtable, slotOf(r.ID))
			if after.subs[res.Subtable].prio != before.subs[res.Subtable].prio {
				copied++
			}
			continue
		}
		if after := d.snap.Load(); after.iv == before.iv || len(after.iv.order) != len(before.iv.order)+1 {
			t.Fatal("a fresh-subtable assign did not publish a new interval sequence")
		}
		break
	}
	if copied == 0 {
		t.Fatal("no insert above every interval changed a priority matrix")
	}

	// A fault written straight into a live priority matrix is published
	// by the next rebuild, since sharing compares contents; every other
	// part of the device stays shared.
	d.mu.Lock()
	st := d.subs[at.st]
	row := st.prio.ReadRow(at.slot)
	row.SetAll()
	st.prio.WriteRow(at.slot, row)
	d.mu.Unlock()
	before := d.snap.Load()
	republish(d)
	after := d.snap.Load()
	for _, id := range after.iv.order {
		if shared := after.subs[id].prio == before.subs[id].prio; shared != (id != at.st) {
			t.Errorf("subtable %d: priority matrix shared = %v after a fault in subtable %d", id, shared, at.st)
		}
		for c, m := range after.subs[id].meta {
			if m != before.subs[id].meta[c] {
				t.Errorf("subtable %d: metadata chunk %d copied by a republish that changed no rank", id, c)
			}
		}
	}
	d.mu.Lock()
	fresh := st.snapshotView(nil)
	d.mu.Unlock()
	if !reflect.DeepEqual(after.subs[at.st].prio, fresh.prio) {
		t.Error("the republished priority matrix is not the live one")
	}
}

// TestPartSharingChurnVsClassify runs a seeded insert/delete/modify
// stream with readers classifying throughout, every batch held to the
// window, and, after every op, holds every published view to a fresh
// freeze of its live subtable: match view, priority matrix, ranks and
// actions, every slot. The stream opens with a modify whose delete
// empties the only subtable and whose insert reassigns it, crosses
// filter re-choices while loading and unloading, and mixes in
// ResetArrayStats and full republishes, epochs that change no rule.
// Run with -race.
func TestPartSharingChurnVsClassify(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 200, Seed: 95})
	d := NewDevice(Config{Subtables: 64, SubtableCapacity: 64, KeyWidth: 160})
	aud := flightrec.NewAuditor(nil, nil, 64, nil)
	aud.SetLookupSampleEvery(1)
	d.AttachAuditor(aud)
	headers := classbench.PacketTrace(rs, 64, 0.9, 96)
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, headers, d.Epoch(), 1+2*(2+320))
	batch := func(dst []LookupResult) []LookupResult { return d.LookupHeaderBatch(headers, dst) }
	stop := windowReaders(t, d, w, headers, batch, batch)
	defer stop()

	sharedPrio := 0
	prev := d.snap.Load()
	check := func(step string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		s := d.snap.Load()
		if !reflect.DeepEqual(s.iv, d.snapshotIntervals(nil)) {
			t.Fatalf("%s: published intervals %+v, live %+v", step, *s.iv, d.order)
		}
		top := 0
		for id, on := range d.active {
			if on {
				top = id + 1
			}
		}
		if len(s.subs) != top {
			t.Fatalf("%s: published %d subtable slots, the highest active subtable is %d", step, len(s.subs), top-1)
		}
		for id, sv := range s.subs {
			if !d.active[id] {
				if sv != nil {
					t.Fatalf("%s: inactive subtable %d published a view", step, id)
				}
				continue
			}
			if want := d.subs[id].snapshotView(nil); !reflect.DeepEqual(sv, want) {
				t.Fatalf("%s: subtable %d's published view differs from a fresh freeze", step, id)
			}
			if id >= len(prev.subs) {
				continue
			}
			if old := prev.subs[id]; old != nil && old != sv && old.prio == sv.prio {
				sharedPrio++
			}
		}
		prev = s
	}

	// A lone rule's modify empties its subtable, releases it, and the
	// insert half takes the same subtable back from the free pool.
	first := rs.Rules[0]
	lone := churn(t, d, m, w, oracle.Insert, first).Subtable
	check("first insert")
	next := rs.Rules[1]
	next.ID = first.ID
	if res := churn(t, d, m, w, oracle.Modify, next); res.FreshTables != 1 || res.Subtable != lone {
		t.Fatalf("lone modify %+v: want subtable %d released and reassigned", res, lone)
	}
	check("lone modify")

	rng := rand.New(rand.NewSource(97))
	live := []rules.Rule{next}
	pending := append([]rules.Rule(nil), rs.Rules[2:]...)
	d.mu.Lock()
	selAt := d.selAt
	d.mu.Unlock()
	choices := 0
	step := func(i int, deleteBias float64) {
		t.Helper()
		switch p := rng.Float64(); {
		case len(live) > 0 && p < deleteBias:
			j := rng.Intn(len(live))
			churn(t, d, m, w, oracle.Delete, live[j])
			pending = append(pending, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case len(live) > 0 && len(pending) > 0 && p < deleteBias+0.2:
			j := rng.Intn(len(live))
			r := pending[rng.Intn(len(pending))]
			r.ID, r.Priority = live[j].ID, rng.Intn(1<<16)
			churn(t, d, m, w, oracle.Modify, r)
			live[j] = r
		case len(pending) > 0:
			j := rng.Intn(len(pending))
			r := pending[j]
			churn(t, d, m, w, oracle.Insert, r)
			live = append(live, r)
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		switch {
		case i%97 == 0:
			d.ResetArrayStats()
		case i%61 == 0:
			republish(d)
		}
		if err := w.Record(d.Epoch()); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		d.mu.Lock()
		if d.selAt != selAt {
			selAt = d.selAt
			choices++
		}
		d.mu.Unlock()
		check("churn")
	}
	for i := 1; i <= 200; i++ {
		step(i, 0.15)
	}
	for i := 201; i <= 320; i++ {
		step(i, 0.7)
	}
	stop()

	if choices < 2 {
		t.Fatalf("%d filter re-choices, want >= 2", choices)
	}
	if sharedPrio == 0 {
		t.Fatal("no rebuilt view shared its priority matrix: the stream never exercised part sharing")
	}
	if n := aud.TotalViolations(); n != 0 {
		t.Fatalf("%d invariant violations under part-sharing churn", n)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateBytesPerOpPinned pins what an update allocates, publication
// included, on the benchmark's update phase: an ACL table at table seed
// 5 in a Compact device, then 1,000 UpdateTraceFresh ops at seed 7,
// with the allocation counter read around the ops alone. Before
// publication shared unchanged view parts it was 35.3 KB per op on
// ACL-1K, and 16.8 KB before it shared match lines across deletes and
// copied the priority matrix by chunk.
func TestUpdateBytesPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		name  string
		size  int
		bound float64
	}{
		{"ACL-1K", 1000, 10000},
		{"ACL-5K", 5000, 10500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: tc.size, Seed: 5})
			d := NewDevice(Compact())
			for _, r := range rs.Rules {
				if _, err := d.InsertRule(r); err != nil {
					t.Fatalf("load rule %d: %v", r.ID, err)
				}
			}
			ops := classbench.UpdateTraceFresh(rs, 1000, 7)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, u := range ops {
				var err error
				if u.Op == classbench.OpInsert {
					_, err = d.InsertRule(u.Rule)
				} else {
					_, err = d.DeleteRule(u.Rule.ID)
				}
				if err != nil {
					t.Fatalf("%v rule %d: %v", u.Op, u.Rule.ID, err)
				}
			}
			runtime.ReadMemStats(&m1)
			perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(ops))
			t.Logf("%.0f B/op", perOp)
			if perOp > tc.bound {
				t.Errorf("updates allocate %.0f B/op, want <= %.0f", perOp, tc.bound)
			}
		})
	}
}
