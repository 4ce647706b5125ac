package core

import (
	"errors"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

func sramMatchParams(rows, cols int) sram.Params {
	p := sram.MatchMatrixParams()
	p.Rows, p.Cols = rows, cols
	return p
}

func sramPrioParams(rows, cols int) sram.Params {
	p := sram.PriorityMatrixParams()
	p.Rows, p.Cols = rows, cols
	return p
}

func TestCompactConfig(t *testing.T) {
	c := Compact()
	if c.Subtables != 256 || c.SubtableCapacity != 256 || c.KeyWidth != 160 {
		t.Fatalf("compact = %+v", c)
	}
	d := NewDevice(c)
	if d.Config().KeyWidth != 160 {
		t.Fatal("Config accessor wrong")
	}
}

func TestInsertWordAndPadding(t *testing.T) {
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160})
	w := ternary.MustParse("1010")
	res, err := d.InsertWord(w, 5, 1, 42)
	if err != nil || res.Cycles != 3 {
		t.Fatalf("InsertWord: %+v %v", res, err)
	}
	// A 4-bit key padded with zeros matches the word padded with
	// wildcards iff the prefix matches.
	e, ok := classifyKey(d, paddedKey(d, "1010"))
	if !ok || e.Action != 42 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	if _, ok := classifyKey(d, paddedKey(d, "1011")); ok {
		t.Fatal("wrong key matched")
	}
	if _, err := d.DeleteRule(1); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertWordOversizePanics(t *testing.T) {
	d := NewDevice(Config{Subtables: 2, SubtableCapacity: 4, KeyWidth: 160})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize word accepted")
		}
	}()
	d.InsertWord(ternary.NewWord(320), 1, 1, 1)
}

func TestLookupBatchOversizePanics(t *testing.T) {
	d := NewDevice(Config{Subtables: 2, SubtableCapacity: 4, KeyWidth: 160})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize key accepted")
		}
	}()
	d.LookupBatch([]ternary.Key{ternary.NewKey(320)}, nil)
}

// TestLookupBatchNarrowKeyPanics holds LookupBatch to device-wide keys:
// a 5-tuple key zero-padded would read 0 in the port predicate columns
// and miss every predicate row, so a narrow key is refused outright.
func TestLookupBatchNarrowKeyPanics(t *testing.T) {
	d := NewDevice(Config{Subtables: 2, SubtableCapacity: 4, KeyWidth: 160})
	defer func() {
		if recover() == nil {
			t.Fatal("narrow key accepted")
		}
	}()
	d.LookupBatch([]ternary.Key{rules.EncodeHeader(rules.Header{})}, nil)
}

func TestNewDeviceValidation(t *testing.T) {
	for i, cfg := range []Config{
		{Subtables: 0, SubtableCapacity: 8},
		{Subtables: 8, SubtableCapacity: 0},
		{Subtables: 8, SubtableCapacity: 8, KeyWidth: 100}, // not a multiple of 160
		{Subtables: 8, SubtableCapacity: -1},
		{Subtables: 8, SubtableCapacity: 8, KeyWidth: -160},
		{Subtables: 1, SubtableCapacity: 1 << 16}, // a flush's 16-bit classes
	} {
		if cfg.Validate() == nil {
			t.Fatalf("case %d: Validate accepts %+v", i, cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: invalid config accepted", i)
				}
			}()
			NewDevice(cfg)
		}()
	}
	// Zero key width and frequency take defaults.
	if err := (Config{Subtables: 2, SubtableCapacity: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	d := NewDevice(Config{Subtables: 2, SubtableCapacity: 4})
	if d.Config().KeyWidth != 160 || d.Config().FrequencyMHz != 500 {
		t.Fatalf("defaults not applied: %+v", d.Config())
	}
}

func TestArrayStatsAggregation(t *testing.T) {
	d := NewDevice(Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160})
	if _, err := d.InsertRule(mkRule(1, 5, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	d.Lookup(rules.Header{})
	match, prio, global := d.ArrayStats()
	if match.EnergyFJ <= 0 || prio.EnergyFJ <= 0 {
		t.Fatalf("no array energy: match=%v prio=%v", match.EnergyFJ, prio.EnergyFJ)
	}
	if global.EnergyFJ <= 0 {
		t.Fatal("global matrix unused during lookup")
	}
	d.ResetArrayStats()
	match, prio, global = d.ArrayStats()
	if match.EnergyFJ != 0 || prio.EnergyFJ != 0 || global.EnergyFJ != 0 {
		t.Fatal("ResetArrayStats incomplete")
	}
}

func TestChainFeasibleBranches(t *testing.T) {
	d := NewDevice(Config{Subtables: 2, SubtableCapacity: 2, KeyWidth: 160,
		ChainedReallocation: true})
	// Fill completely: 2 tables x 2 slots.
	for i := 0; i < 4; i++ {
		if _, err := d.InsertRule(mkRule(i, 10*(i+1), rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	// No free subtables, every table full: chain infeasible -> ErrFull.
	if _, err := d.InsertRule(mkRule(9, 5, rules.Prefix{Len: 0})); err == nil {
		t.Fatal("full chained device accepted insert")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Free a slot in the upper table: chain becomes feasible.
	if _, err := d.DeleteRule(3); err != nil {
		t.Fatal(err)
	}
	res, err := d.InsertRule(mkRule(10, 5, rules.Prefix{Len: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocated < 1 {
		t.Fatalf("expected chained reallocation, got %+v", res)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSubtableIDAccessor(t *testing.T) {
	st := testSubtable(4, 4)
	if st.ID() != 0 {
		t.Fatalf("ID = %d", st.ID())
	}
}

func TestNewSubtableValidation(t *testing.T) {
	mp := sramMatchParams(8, 4)
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: invalid geometry accepted", name)
			}
		}()
		f()
	}
	check("priority rows mismatch", func() {
		NewSubtable(0, 8, 4, mp, sramPrioParams(4, 4))
	})
	check("match rows mismatch", func() {
		NewSubtable(0, 8, 4, sramMatchParams(4, 4), sramPrioParams(8, 8))
	})
}

func TestNewPriorityStoreValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity store accepted")
		}
	}()
	NewPriorityStore(0)
}

func TestModifyRule(t *testing.T) {
	d := NewDevice(smallConfig())
	if _, err := d.InsertRule(mkRule(1, 5, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	newVer := mkRule(1, 50, rules.Prefix{Len: 0})
	newVer.Action = 777
	res, err := d.ModifyRule(1, newVer)
	if err != nil {
		t.Fatal(err)
	}
	// delete (1 cycle) + insert (3 cycles)
	if res.Cycles != 4 {
		t.Fatalf("modify cycles = %d, want 4", res.Cycles)
	}
	if act, ok := d.Lookup(rules.Header{}); !ok || act != 777 {
		t.Fatalf("modified rule = %d,%v", act, ok)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// ID mismatch rejected; missing rule rejected.
	if _, err := d.ModifyRule(1, mkRule(2, 9, rules.Prefix{Len: 0})); err == nil {
		t.Fatal("ID mismatch accepted")
	}
	if _, err := d.ModifyRule(42, mkRule(42, 9, rules.Prefix{Len: 0})); err == nil {
		t.Fatal("modify of missing rule accepted")
	}
}

// TestEmptyRuleRejected: a rule whose port range has Lo > Hi encodes to
// no entries. Insert and modify reject it before touching any state: no
// epoch, no stored entry, and a modify leaves the old version in place.
func TestEmptyRuleRejected(t *testing.T) {
	empty := func(id int) rules.Rule {
		r := mkRule(id, 50, rules.Prefix{Len: 0})
		r.DstPort = rules.PortRange{Lo: 9, Hi: 3}
		return r
	}
	d := NewDevice(smallConfig())
	if _, err := d.InsertRule(mkRule(1, 5, rules.Prefix{Len: 0})); err != nil {
		t.Fatal(err)
	}
	want, _ := d.Lookup(rules.Header{})
	epoch, entries := d.Epoch(), d.Len()
	for _, tc := range []struct {
		name string
		do   func() (UpdateResult, error)
	}{
		{"insert", func() (UpdateResult, error) { return d.InsertRule(empty(2)) }},
		{"modify", func() (UpdateResult, error) { return d.ModifyRule(1, empty(1)) }},
	} {
		if _, err := tc.do(); !errors.Is(err, ErrEmptyRule) {
			t.Fatalf("%s of an empty rule: %v, want ErrEmptyRule", tc.name, err)
		}
		if d.Epoch() != epoch || d.Len() != entries {
			t.Fatalf("%s of an empty rule touched the device: epoch %d -> %d, entries %d -> %d",
				tc.name, epoch, d.Epoch(), entries, d.Len())
		}
		if act, ok := d.Lookup(rules.Header{}); !ok || act != want {
			t.Fatalf("after a rejected %s the old rule answers %d,%v, want %d", tc.name, act, ok, want)
		}
	}
	if _, err := d.DeleteRule(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the rejected insert left a rule behind: delete says %v", err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
