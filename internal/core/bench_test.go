package core

import (
	"fmt"
	"math/rand"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/rules"
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
	return st, entries
}

// BenchmarkSubtableInsert alters a full subtable: CompareAll is the
// comparator broadcast alone, DeleteInsert a slot's delete and the
// 3-cycle re-insert of its entry (broadcast, entry write, priority row
// and column writes).
func BenchmarkSubtableInsert(b *testing.B) {
	st, entries := fullSubtable()
	n := len(entries)
	b.Run("CompareAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.store.CompareAll(entries[i%n].Rank, st.row, st.col)
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

// BenchmarkInsertRuleMultiRow deletes and re-inserts, in turn, each
// ACL-1K rule that encodes to 24 rows or more, on the loaded seed-5
// Compact device: the rules that set the update tail. One op is the
// pair, each half with its own publication.
func BenchmarkInsertRuleMultiRow(b *testing.B) {
	d, rs := loadACL(b, Compact(), 1000)
	var multi []rules.Rule
	for _, r := range rs.Rules {
		if len(r.Encode()) >= 24 {
			multi = append(multi, r)
		}
	}
	if len(multi) == 0 {
		b.Fatal("no rule of 24 rows or more")
	}
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

// BenchmarkPublish times one update's publishLocked on a device of
// 1,024 subtables loaded with ACL tables of 1K, 10K and 20K rules, a
// rule's delete and its re-insert apart: /delete times the publication
// that ends a delete, /insert the one that ends the re-insert. The
// update and the other half of the pair, with its publication, run off
// the clock, so every op starts from the whole table.
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
					_, err = d.deleteRule(r.ID)
				} else {
					_, err = d.insertRule(r, r.EncodeWidth(cfg.KeyWidth))
				}
				if err != nil {
					b.Fatal(err)
				}
				if timed {
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
