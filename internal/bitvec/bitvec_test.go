package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector has set bits")
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != 8 {
		t.Fatalf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if v.Count() != 7 {
		t.Fatalf("Count = %d, want 7", v.Count())
	}
}

func TestSetBool(t *testing.T) {
	v := New(10)
	v.SetBool(3, true)
	v.SetBool(4, false)
	if !v.Get(3) || v.Get(4) {
		t.Fatalf("SetBool wrong: %s", v)
	}
	v.SetBool(3, false)
	if v.Get(3) {
		t.Fatal("SetBool(3,false) left bit set")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(64)
	for _, f := range []func(){
		func() { v.Set(64) },
		func() { v.Get(-1) },
		func() { v.Clear(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSetAllCanonical(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 256} {
		v := New(n)
		v.SetAll()
		if v.Count() != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, v.Count())
		}
		// Tail bits beyond n must stay zero so popcounts stay honest.
		last := v.Words()[len(v.Words())-1]
		if r := n % 64; r != 0 {
			if last>>(uint(r)) != 0 {
				t.Fatalf("n=%d: tail bits set: %x", n, last)
			}
		}
	}
}

func TestReset(t *testing.T) {
	v := New(70)
	v.SetAll()
	v.Reset()
	if v.Any() {
		t.Fatal("Reset left bits set")
	}
}

func TestLogicOps(t *testing.T) {
	a := FromIndices(10, 1, 3, 5, 7)
	b := FromIndices(10, 3, 4, 5, 6)

	and := a.Copy().And(b)
	if got, want := and.Indices(), []int{3, 5}; !equalInts(got, want) {
		t.Fatalf("And = %v, want %v", got, want)
	}
	or := a.Copy().Or(b)
	if got, want := or.Indices(), []int{1, 3, 4, 5, 6, 7}; !equalInts(got, want) {
		t.Fatalf("Or = %v, want %v", got, want)
	}
	andnot := a.Copy().AndNot(b)
	if got, want := andnot.Indices(), []int{1, 7}; !equalInts(got, want) {
		t.Fatalf("AndNot = %v, want %v", got, want)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestCopyIndependence(t *testing.T) {
	a := FromIndices(10, 2)
	b := a.Copy()
	b.Set(5)
	if a.Get(5) {
		t.Fatal("Copy shares storage with original")
	}
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom did not produce equal vector")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(65, 64)
	b := FromIndices(65, 64)
	if !a.Equal(b) {
		t.Fatal("equal vectors reported unequal")
	}
	b.Set(0)
	if a.Equal(b) {
		t.Fatal("unequal vectors reported equal")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestIsOneHot(t *testing.T) {
	cases := []struct {
		idx  []int
		want bool
	}{
		{nil, false},
		{[]int{0}, true},
		{[]int{63}, true},
		{[]int{64}, true},
		{[]int{127}, true},
		{[]int{0, 1}, false},
		{[]int{0, 64}, false},
		{[]int{63, 64}, false},
	}
	for _, c := range cases {
		v := FromIndices(128, c.idx...)
		if got := v.IsOneHot(); got != c.want {
			t.Errorf("IsOneHot(%v) = %v, want %v", c.idx, got, c.want)
		}
	}
}

func TestFirstLast(t *testing.T) {
	v := New(200)
	if v.First() != -1 || v.Last() != -1 {
		t.Fatal("empty vector First/Last not -1")
	}
	v.Set(7)
	v.Set(130)
	if v.First() != 7 {
		t.Fatalf("First = %d, want 7", v.First())
	}
	if v.Last() != 130 {
		t.Fatalf("Last = %d, want 130", v.Last())
	}
}

// TestQuickNextSet: walking First, then NextSet from one past each
// hit, visits exactly Indices, and NextSet from any point lands on the
// first index at or above it.
func TestQuickNextSet(t *testing.T) {
	f := func(idx []uint8, from uint8) bool {
		v := New(200)
		for _, i := range idx {
			if int(i) < v.Len() {
				v.Set(int(i))
			}
		}
		var walk []int
		for i := v.First(); i >= 0; i = v.NextSet(i + 1) {
			walk = append(walk, i)
		}
		want := v.Indices()
		if len(walk) != len(want) {
			return false
		}
		for j := range walk {
			if walk[j] != want[j] {
				return false
			}
		}
		next := -1
		for _, i := range want {
			if i >= int(from) {
				next = i
				break
			}
		}
		return v.NextSet(int(from)) == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	v := FromIndices(100, 1, 2, 3, 4)
	var seen []int
	v.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !equalInts(seen, []int{1, 2}) {
		t.Fatalf("ForEach early-stop saw %v", seen)
	}
}

func TestString(t *testing.T) {
	v := FromIndices(5, 0, 3)
	if got := v.String(); got != "10010" {
		t.Fatalf("String = %q, want %q", got, "10010")
	}
}

func TestZeroLength(t *testing.T) {
	v := New(0)
	if v.Any() || v.Count() != 0 || v.First() != -1 || v.IsOneHot() {
		t.Fatal("zero-length vector misbehaves")
	}
	v.SetAll()
	if v.Any() {
		t.Fatal("SetAll on zero-length vector set bits")
	}
}

// Property: AndNot(x, x) is empty; And is idempotent; Or with self is identity.
func TestQuickAlgebra(t *testing.T) {
	f := func(idx []uint16) bool {
		v := New(1 << 16)
		for _, i := range idx {
			v.Set(int(i))
		}
		if v.Copy().AndNot(v).Any() {
			return false
		}
		if !v.Copy().And(v).Equal(v) {
			return false
		}
		return v.Copy().Or(v).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals len(Indices) and equals set cardinality.
func TestQuickCountIndices(t *testing.T) {
	f := func(idx []uint8) bool {
		v := New(256)
		uniq := map[int]bool{}
		for _, i := range idx {
			v.Set(int(i))
			uniq[int(i)] = true
		}
		return v.Count() == len(uniq) && len(v.Indices()) == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan on a bounded universe — AndNot(a,b) == And(a, complement b).
func TestQuickDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b, comp := New(n), New(n), New(n)
		comp.SetAll()
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				comp.Clear(i)
			}
		}
		if !a.Copy().AndNot(b).Equal(a.Copy().And(comp)) {
			t.Fatalf("De Morgan violated at n=%d", n)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
