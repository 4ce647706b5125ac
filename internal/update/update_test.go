package update

import (
	"errors"
	"math/rand"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/rules"
)

// allAlgorithms builds one instance of every updater with the given
// capacity (in TCAM slots) and the 5-tuple width.
func allAlgorithms(capacity int) []Algorithm {
	return []Algorithm{
		NewNaive(capacity, rules.TupleBits),
		NewFastRule(capacity, rules.TupleBits),
		NewRuleTris(capacity, rules.TupleBits),
		NewPOT(capacity, rules.TupleBits),
		NewTreeCAM(capacity, rules.TupleBits),
	}
}

func simpleRule(id, prio int, src rules.Prefix) rules.Rule {
	return rules.Rule{
		ID: id, Priority: prio, Action: id * 10,
		SrcIP: src, DstIP: rules.Prefix{Len: 0},
		SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(),
		ProtoWildcard: true,
	}
}

func TestNames(t *testing.T) {
	want := []string{"Naive", "FastRule", "RuleTris", "POT", "TreeCAM"}
	for i, a := range allAlgorithms(64) {
		if a.Name() != want[i] {
			t.Errorf("algorithm %d name = %q, want %q", i, a.Name(), want[i])
		}
	}
}

func TestInsertLookupDeleteBasic(t *testing.T) {
	for _, a := range allAlgorithms(256) {
		t.Run(a.Name(), func(t *testing.T) {
			broad := simpleRule(1, 1, rules.Prefix{Len: 0})
			narrow := simpleRule(2, 9, rules.Prefix{Addr: 0x0A000000, Len: 8})
			if _, err := a.Insert(broad); err != nil {
				t.Fatalf("insert broad: %v", err)
			}
			if _, err := a.Insert(narrow); err != nil {
				t.Fatalf("insert narrow: %v", err)
			}
			if err := a.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0A010101}); !ok || act != 20 {
				t.Fatalf("lookup in 10/8 = %d,%v want 20", act, ok)
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0B010101}); !ok || act != 10 {
				t.Fatalf("lookup outside = %d,%v want 10", act, ok)
			}
			if _, err := a.Delete(2); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0A010101}); !ok || act != 10 {
				t.Fatalf("lookup after delete = %d,%v want 10", act, ok)
			}
			if err := a.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeleteMissingRule(t *testing.T) {
	for _, a := range allAlgorithms(64) {
		if _, err := a.Delete(42); err == nil {
			t.Errorf("%s: deleting missing rule succeeded", a.Name())
		}
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	// Inserting low-priority first then high-priority (which must go
	// above) forces reordering work in address-ordered schemes.
	for _, a := range allAlgorithms(256) {
		t.Run(a.Name(), func(t *testing.T) {
			// chain: /8 < /16 < /24 nested prefixes, increasing priority
			for i, plen := range []int{8, 16, 24} {
				r := simpleRule(i, i+1, rules.Prefix{Addr: 0x0A0B0C00, Len: plen}.Canonical())
				if _, err := a.Insert(r); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				if err := a.CheckInvariant(); err != nil {
					t.Fatalf("after insert %d: %v", i, err)
				}
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0A0B0C01}); !ok || act != 20 {
				t.Fatalf("deepest prefix should win: got %d,%v", act, ok)
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0A0BFF01}); !ok || act != 10 {
				t.Fatalf("/16 should win: got %d,%v", act, ok)
			}
			if act, ok := a.Lookup(rules.Header{SrcIP: 0x0AFF0001}); !ok || act != 0 {
				t.Fatalf("/8 should win: got %d,%v", act, ok)
			}
		})
	}
}

func TestNaiveMovesGrowLinearly(t *testing.T) {
	na := NewNaive(2048, rules.TupleBits)
	total := 0
	// Insert rules in increasing priority so each lands at the top,
	// shifting everything: worst case.
	for i := 0; i < 500; i++ {
		res, err := na.Insert(simpleRule(i, i+1, rules.Prefix{Len: 0}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves != i {
			t.Fatalf("insert %d moved %d entries, want %d", i, res.Moves, i)
		}
		total += res.Moves
	}
	if total != 500*499/2 {
		t.Fatalf("total moves = %d", total)
	}
}

func TestNaiveFullTable(t *testing.T) {
	na := NewNaive(4, rules.TupleBits)
	for i := 0; i < 4; i++ {
		if _, err := na.Insert(simpleRule(i, i+1, rules.Prefix{Len: 0})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := na.Insert(simpleRule(9, 99, rules.Prefix{Len: 0})); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
}

func TestChainInsertUsesFreeSlotZeroMoves(t *testing.T) {
	fr := NewFastRule(64, rules.TupleBits)
	// Independent rules (disjoint prefixes): every insert should cost 0 moves.
	for i := 0; i < 20; i++ {
		r := simpleRule(i, i+1, rules.Prefix{Addr: uint32(i) << 24, Len: 8})
		res, err := fr.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves != 0 {
			t.Fatalf("independent insert %d cost %d moves", i, res.Moves)
		}
	}
	if err := fr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestChainReordersDependentRules(t *testing.T) {
	// Fill a small table with a dependency chain inserted in worst
	// order (lowest priority first), with no free slot in the window —
	// forcing moves.
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewFastRule(8, rules.TupleBits) },
		func() Algorithm { return NewRuleTris(8, rules.TupleBits) },
		func() Algorithm { return NewPOT(8, rules.TupleBits) },
	} {
		a := mk()
		for i := 0; i < 8; i++ {
			plen := 4 * (i + 1)
			if plen > 32 {
				plen = 32
			}
			r := simpleRule(i, i+1, rules.Prefix{Addr: 0x0A0B0C0D, Len: plen}.Canonical())
			if _, err := a.Insert(r); err != nil {
				t.Fatalf("%s insert %d: %v", a.Name(), i, err)
			}
			if err := a.CheckInvariant(); err != nil {
				t.Fatalf("%s after %d: %v", a.Name(), i, err)
			}
		}
		// Deepest nest (highest priority) must win.
		if act, ok := a.Lookup(rules.Header{SrcIP: 0x0A0B0C0D}); !ok || act != 70 {
			t.Fatalf("%s: got %d,%v want 70", a.Name(), act, ok)
		}
	}
}

func TestChainFullTable(t *testing.T) {
	fr := NewFastRule(3, rules.TupleBits)
	for i := 0; i < 3; i++ {
		if _, err := fr.Insert(simpleRule(i, i+1, rules.Prefix{Addr: uint32(i) << 24, Len: 8})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fr.Insert(simpleRule(9, 9, rules.Prefix{Len: 0})); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	// Failed insert must not corrupt the table.
	if err := fr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if fr.Len() != 3 {
		t.Fatalf("Len after failed insert = %d", fr.Len())
	}
}

func TestOpsCounted(t *testing.T) {
	for _, a := range allAlgorithms(256) {
		r1 := simpleRule(1, 1, rules.Prefix{Len: 0})
		r2 := simpleRule(2, 2, rules.Prefix{Addr: 0x0A000000, Len: 8})
		if _, err := a.Insert(r1); err != nil {
			t.Fatal(err)
		}
		res, err := a.Insert(r2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 {
			t.Errorf("%s: second insert reported zero firmware ops", a.Name())
		}
	}
}

func TestRuleTrisCountsReductionWork(t *testing.T) {
	rt := NewRuleTris(64, rules.TupleBits)
	fr := NewFastRule(64, rules.TupleBits)
	var rtOps, frOps uint64
	for i := 0; i < 12; i++ {
		plen := 2 + 2*i
		if plen > 32 {
			plen = 32
		}
		r := simpleRule(i, i+1, rules.Prefix{Addr: 0x0A0B0C0D, Len: plen}.Canonical())
		res, err := rt.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rtOps += res.Ops
		res, err = fr.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		frOps += res.Ops
	}
	if rtOps <= frOps {
		t.Fatalf("RuleTris ops (%d) should exceed FastRule ops (%d) on nested chains", rtOps, frOps)
	}
}

// Conformance: every algorithm must agree with the linear reference
// classifier after a random interleaved update stream.
func TestConformanceAgainstReference(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 120, Seed: 99})
	trace := classbench.UpdateTrace(rs, 160, 100)
	headers := classbench.PacketTrace(rs, 150, 0.8, 101)

	for _, a := range allAlgorithms(4096) {
		t.Run(a.Name(), func(t *testing.T) {
			ref := &rules.Ruleset{}
			insert := func(r rules.Rule) {
				if _, err := a.Insert(r); err != nil {
					t.Fatalf("insert rule %d: %v", r.ID, err)
				}
				ref.Rules = append(ref.Rules, r)
			}
			remove := func(id int) {
				if _, err := a.Delete(id); err != nil {
					t.Fatalf("delete rule %d: %v", id, err)
				}
				for i, r := range ref.Rules {
					if r.ID == id {
						ref.Rules = append(ref.Rules[:i], ref.Rules[i+1:]...)
						break
					}
				}
			}
			for _, r := range rs.Rules {
				insert(r)
			}
			check := func(stage string) {
				if err := a.CheckInvariant(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for _, h := range headers {
					want, wantOK := ref.Best(h)
					got, ok := a.Lookup(h)
					if ok != wantOK || (ok && got != want.Action) {
						t.Fatalf("%s: lookup %+v = (%d,%v), reference (%d,%v)",
							stage, h, got, ok, want.Action, wantOK)
					}
				}
			}
			check("after load")
			for i, u := range trace {
				if u.Op == classbench.OpInsert {
					insert(u.Rule)
				} else {
					remove(u.Rule.ID)
				}
				if i%40 == 39 {
					check("mid-trace")
				}
			}
			check("after trace")
		})
	}
}

// Property: chain algorithms never report negative or absurd move
// counts and keep the invariant under random churn.
func TestQuickChurnInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	rs := classbench.Generate(classbench.Config{Family: classbench.FW, Size: 60, Seed: 56})
	// FW rules range-expand heavily (up to ~36 entries each), so the
	// table needs real headroom.
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewFastRule(8192, rules.TupleBits) },
		func() Algorithm { return NewPOT(8192, rules.TupleBits) },
		func() Algorithm { return NewTreeCAM(8192, rules.TupleBits) },
	} {
		a := mk()
		live := map[int]rules.Rule{}
		nextID := 1000
		for _, r := range rs.Rules {
			if _, err := a.Insert(r); err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			live[r.ID] = r
		}
		for step := 0; step < 150; step++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				// Delete the oldest live rule (lowest ID), so the churn,
				// and with it whether TreeCAM's table fills, is the same
				// on every run.
				id := -1
				for k := range live {
					if id < 0 || k < id {
						id = k
					}
				}
				if _, err := a.Delete(id); err != nil {
					t.Fatalf("%s delete: %v", a.Name(), err)
				}
				delete(live, id)
			} else {
				r := rs.Rules[rng.Intn(len(rs.Rules))]
				r.ID = nextID
				r.Priority = 1 + rng.Intn(65535)
				nextID++
				res, err := a.Insert(r)
				if err != nil {
					t.Fatalf("%s insert: %v", a.Name(), err)
				}
				// TreeCAM splits rewrite whole leaves for every
				// expansion entry of a rule, so spikes are legitimate;
				// the bound only guards runaway loops.
				if res.Moves < 0 || res.Moves > 100000 {
					t.Fatalf("%s: absurd move count %d", a.Name(), res.Moves)
				}
				live[r.ID] = r
			}
		}
		if err := a.CheckInvariant(); err != nil {
			t.Fatalf("%s after churn: %v", a.Name(), err)
		}
	}
}

// The chain schedulers are deterministic: replaying one seeded load and
// update trace twice yields the same moves and firmware work per request.
// Their decisions walk dependency-graph neighbour lists, so any map
// iteration order leaking into those lists shows up here.
func TestChainSchedulersDeterministic(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 300, Seed: 31})
	trace := classbench.UpdateTrace(rs, 200, 32)
	replay := func(a Algorithm) []Result {
		var out []Result
		for _, r := range rs.Rules {
			res, err := a.Insert(r)
			if err != nil {
				t.Fatalf("%s load: %v", a.Name(), err)
			}
			out = append(out, res)
		}
		for _, u := range trace {
			var res Result
			var err error
			if u.Op == classbench.OpInsert {
				res, err = a.Insert(u.Rule)
			} else {
				res, err = a.Delete(u.Rule.ID)
			}
			if err != nil {
				t.Fatalf("%s trace: %v", a.Name(), err)
			}
			out = append(out, res)
		}
		return out
	}
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewFastRule(2048, rules.TupleBits) },
		func() Algorithm { return NewRuleTris(2048, rules.TupleBits) },
		func() Algorithm { return NewPOT(2048, rules.TupleBits) },
	} {
		first, second := replay(mk()), replay(mk())
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s request %d: %+v, then %+v on replay", mk().Name(), i, first[i], second[i])
			}
		}
	}
}

// Average moves per update must be ordered roughly as the paper reports:
// chain schedulers well below Naive; TreeCAM in between.
func TestMoveCostOrdering(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 300, Seed: 7})
	trace := classbench.UpdateTrace(rs, 200, 8)
	avg := func(a Algorithm) float64 {
		for _, r := range rs.Rules {
			if _, err := a.Insert(r); err != nil {
				t.Fatalf("%s load: %v", a.Name(), err)
			}
		}
		moves := 0
		for _, u := range trace {
			var res Result
			var err error
			if u.Op == classbench.OpInsert {
				res, err = a.Insert(u.Rule)
			} else {
				res, err = a.Delete(u.Rule.ID)
			}
			if err != nil {
				t.Fatalf("%s trace: %v", a.Name(), err)
			}
			moves += res.Moves
		}
		return float64(moves) / float64(len(trace))
	}
	naive := avg(NewNaive(2048, rules.TupleBits))
	fr := avg(NewFastRule(2048, rules.TupleBits))
	pot := avg(NewPOT(2048, rules.TupleBits))
	if fr >= naive/5 {
		t.Errorf("FastRule avg moves %.2f not well below Naive %.2f", fr, naive)
	}
	if pot >= naive/5 {
		t.Errorf("POT avg moves %.2f not well below Naive %.2f", pot, naive)
	}
	if naive < 50 {
		t.Errorf("Naive avg moves %.2f implausibly low for 300-rule table", naive)
	}
}
