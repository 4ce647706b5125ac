package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/classbench"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

// The update-side rungs above the sram kernels: one subtable
// alteration, one multi-row rule, and the epoch publication that ends
// every update. They time the host; the modelled cycles are pinned by
// TestLookupAccountingPinned, not here.

// fullSubtable returns a 256-slot subtable filled with ACL-1K's first
// 256 encoded rows (table seed 5) under distinct random ranks, and the
// entries it holds, slot by slot.
func fullSubtable() (*Subtable, []Entry) {
	cfg := Compact()
	st := testSubtable(cfg.SubtableCapacity, cfg.KeyWidth)
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 0, cfg.SubtableCapacity)
	for _, r := range rs.Rules {
		for _, w := range r.EncodeWidth(cfg.KeyWidth) {
			if len(entries) == cap(entries) {
				break
			}
			i := len(entries)
			e := Entry{Word: w, Rank: Rank{Priority: rng.Intn(1 << 16), RuleID: i, Seq: i}, Action: i}
			st.Insert(i, e)
			entries = append(entries, e)
		}
	}
	st.flush()
	return st, entries
}

// BenchmarkSubtableInsert alters a full subtable: CompareAll is the
// comparator broadcast of one pending entry against the other slots
// alone (each slot's class, also bit-sliced), DeleteInsert a slot's delete
// and the 3-cycle re-insert of its entry (entry write, then at the
// next delete's flush the broadcast and the priority row and column
// writes).
func BenchmarkSubtableInsert(b *testing.B) {
	st, entries := fullSubtable()
	n := len(entries)
	b.Run("CompareAll", func(b *testing.B) {
		fs, pending := newFlushScratch(n), bitvec.New(n)
		pend := fs.pend[:1]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slot := i % n
			pend[0] = pendingSlot{rank: entries[slot].Rank, slot: slot}
			pending.Set(slot)
			st.store.CompareAll(pend, pending.Words(), fs.class, fs.planes)
			pending.Clear(slot)
		}
	})
	b.Run("DeleteInsert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slot := i % n
			st.Delete(slot)
			st.Insert(slot, entries[slot])
		}
	})
}

// loadACL returns a device of geometry cfg loaded with the ACL table of
// size rules at table seed 5, and the table.
func loadACL(b *testing.B, cfg Config, size int) (*Device, *rules.Ruleset) {
	b.Helper()
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: size, Seed: 5})
	d := NewDevice(cfg)
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			b.Fatalf("load rule %d: %v", r.ID, err)
		}
	}
	return d, rs
}

// multiRow returns the rules of rs that store 24 rows or more at the
// key width of cfg: the rules that set the update tail.
func multiRow(b *testing.B, cfg Config, rs *rules.Ruleset) []rules.Rule {
	b.Helper()
	var multi []rules.Rule
	for _, r := range rs.Rules {
		if r.ExpansionCountWidth(cfg.KeyWidth) >= 24 {
			multi = append(multi, r)
		}
	}
	if len(multi) == 0 {
		b.Fatal("no rule of 24 rows or more")
	}
	return multi
}

// BenchmarkInsertRuleMultiRow deletes and re-inserts, in turn, each
// ACL-5K rule that stores 24 rows or more, on the loaded seed-5 Compact
// device. One op is the pair, each half with its own publication.
func BenchmarkInsertRuleMultiRow(b *testing.B) {
	cfg := Compact()
	d, rs := loadACL(b, cfg, 5000)
	multi := multiRow(b, cfg, rs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := multi[i%len(multi)]
		if _, err := d.DeleteRule(r.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := d.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertRuleMultiRowFull inserts, in turn, each ACL-5K rule
// (table seed 5) that stores 24 rows or more into a full subtable, so
// every row evicts: the other half of the update tail. The device is
// the Compact geometry cut to 2 subtables. The first holds fillers
// ranked below the rule and, above it, a copy of the rule with the most
// rows, so each row of the rule evicts the subtable's maximum into the
// second. One op is the insert and its publication; off the clock, the
// rule and the copy are deleted and the copy re-inserted, which fills
// the first subtable again and empties the second.
func BenchmarkInsertRuleMultiRowFull(b *testing.B) {
	cfg := Compact()
	cfg.Subtables = 2
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 5000, Seed: 5})
	multi := multiRow(b, cfg, rs)
	var top rules.Rule
	for i := range multi {
		multi[i].Priority = 1
		if multi[i].ExpansionCountWidth(cfg.KeyWidth) > top.ExpansionCountWidth(cfg.KeyWidth) {
			top = multi[i]
		}
	}
	top.ID, top.Priority = len(rs.Rules), 2
	d := NewDevice(cfg)
	if _, err := d.InsertRule(top); err != nil {
		b.Fatal(err)
	}
	for i := 0; !d.subs[d.order[0]].Full(); i++ {
		w := rs.Rules[i%len(rs.Rules)].EncodeWidth(cfg.KeyWidth)[0]
		if _, err := d.InsertWord(w, 0, len(rs.Rules)+1+i, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := multi[i%len(multi)]
		res, err := d.InsertRule(r)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rows := r.ExpansionCountWidth(cfg.KeyWidth); res.Reallocated != rows {
			b.Fatalf("rule %d: %d of %d rows evicted", r.ID, res.Reallocated, rows)
		}
		for _, id := range []int{r.ID, top.ID} {
			if _, err := d.DeleteRule(id); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := d.InsertRule(top); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkPublish times one update's publishLocked on a device of
// 1,024 subtables loaded with ACL tables of 1K, 10K and 20K rules, a
// rule's delete and its re-insert apart: /delete times the publication
// that ends a delete, /insert the one that ends the re-insert. The
// update and the other half of the pair, with its publication, run off
// the clock, so every op starts from the whole table. So that the
// publication off the clock does not warm the caches for the timed one,
// a buffer larger than L2 is swept before every timed publication, on
// both halves.
func BenchmarkPublish(b *testing.B) {
	cfg := Compact()
	cfg.Subtables = 1024
	for _, size := range []int{1000, 10000, 20000} {
		b.Run(fmt.Sprintf("ACL-%dK", size/1000), func(b *testing.B) {
			d, rs := loadACL(b, cfg, size)
			d.mu.Lock()
			defer d.mu.Unlock()
			// step runs one half of rule r's delete and re-insert and
			// publishes it, the publication on the clock when timed.
			step := func(b *testing.B, r rules.Rule, del, timed bool) {
				var err error
				if del {
					d.deleteSeqs(r.ID, 0, math.MaxInt)
				} else {
					_, err = d.insertRule(r, r.EncodeWidth(cfg.KeyWidth))
				}
				if err != nil {
					b.Fatal(err)
				}
				if timed {
					sweepCaches()
					b.StartTimer()
				}
				d.publishLocked()
				b.StopTimer()
			}
			for _, del := range []bool{true, false} {
				name := "insert"
				if del {
					name = "delete"
				}
				b.Run(name, func(b *testing.B) {
					b.StopTimer()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r := rs.Rules[i%len(rs.Rules)]
						step(b, r, true, del)
						step(b, r, false, !del)
					}
				})
			}
		})
	}
}

// sweep is 8 MB, four times the 2 MB L2 cache of the host DESIGN.md
// §17's rungs were measured on.
var sweep = make([]uint64, 8<<20/8)

// sweepCaches reads and writes every cache line of sweep, so what a
// timed section reads next comes from L3 or memory, not L1 or L2.
func sweepCaches() {
	for i := 0; i < len(sweep); i += 8 {
		sweep[i]++
	}
}

// The lookup-side rungs: the match kernel alone, replaying the searches
// a lookup runs on the host, and the batch classify above it. Both use
// one table and one trace, built once per test binary (lookupRung).

// lookupSetup is the lookup rungs' table and trace: ACL-5K (table seed
// 5) in a Compact device, 16,384 PacketTrace headers at locality 0.8
// (seed 1) and their keys, and every search a lookup of those keys
// runs on the host: for each key, each subtable the bit-selection
// filter admits, in walk order.
type lookupSetup struct {
	d        *Device
	headers  []rules.Header
	keys     []ternary.Key
	searches []recordedSearch
}

// recordedSearch is one host search: the view searched and the index
// of the key it was searched with.
type recordedSearch struct {
	view *sram.TernaryView
	key  int32
}

var (
	lookupOnce sync.Once
	lookupData lookupSetup
)

// lookupRung returns the lookup rungs' setup, building it on the first
// call.
func lookupRung(tb testing.TB) *lookupSetup {
	tb.Helper()
	lookupOnce.Do(func() {
		rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 5000, Seed: 5})
		d := NewDevice(Compact())
		for _, r := range rs.Rules {
			if _, err := d.InsertRule(r); err != nil {
				panic(fmt.Sprintf("load rule %d: %v", r.ID, err))
			}
		}
		ls := lookupSetup{d: d, headers: classbench.PacketTrace(rs, 16384, 0.8, 1)}
		s := d.snap.Load()
		for i, h := range ls.headers {
			k := ternary.NewKey(d.cfg.KeyWidth)
			rules.EncodeHeaderInto(&k, h)
			ls.keys = append(ls.keys, k)
			pats := s.sel.Patterns(k)
			for _, id := range s.order {
				if v := s.matchView(id); v.Admits(pats) {
					ls.searches = append(ls.searches, recordedSearch{view: v, key: int32(i)})
				}
			}
		}
		lookupData = ls
	})
	return &lookupData
}

// BenchmarkSearchInto replays the recorded host searches through the
// match kernel, one search per op, in the order the lookups ran them.
func BenchmarkSearchInto(b *testing.B) {
	ls := lookupRung(b)
	rows := ls.searches[0].view.Rows()
	dst, acc := bitvec.New(rows), make([]uint64, ls.searches[0].view.RowWords())
	var st sram.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ls.searches[i%len(ls.searches)]
		s.view.SearchInto(dst, acc, ls.keys[s.key], &st)
	}
}

// BenchmarkLookupHeaderBatch classifies the trace in 64-header batches
// through LookupHeaderBatch, one batch per op: the filter walk, the
// kernel searches, the priority decisions and the metadata readout of
// 64 lookups.
func BenchmarkLookupHeaderBatch(b *testing.B) {
	ls := lookupRung(b)
	const batch = 64
	dst := make([]LookupResult, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % (len(ls.headers) / batch) * batch
		dst = ls.d.LookupHeaderBatch(ls.headers[off:off+batch], dst[:0])
	}
}
