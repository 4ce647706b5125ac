package ternary

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseString(t *testing.T) {
	for _, s := range []string{"10*1", "0", "1", "*", "1111", "0*0*0*", "10**"} {
		w := MustParse(s)
		if got := w.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "10x1", "2"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	if _, err := ParseKey("10*"); err == nil {
		t.Error("ParseKey with wildcard succeeded")
	}
	if _, err := ParseKey(""); err == nil {
		t.Error("ParseKey(\"\") succeeded")
	}
}

func TestBitAtSetBit(t *testing.T) {
	w := NewWord(70)
	w.SetBit(0, One)
	w.SetBit(69, Zero)
	w.SetBit(35, One)
	if w.BitAt(0) != One || w.BitAt(69) != Zero || w.BitAt(35) != One {
		t.Fatalf("bit round-trip failed: %s", w)
	}
	if w.BitAt(1) != Star {
		t.Fatal("unset bit is not Star")
	}
	w.SetBit(35, Star)
	if w.BitAt(35) != Star {
		t.Fatal("SetBit(Star) did not clear")
	}
}

// Paper Fig 2: rules R0..R4 and the lookup of key 1010.
func TestPaperFig2Matching(t *testing.T) {
	r0 := MustParse("10**")
	r1 := MustParse("0110")
	r2 := MustParse("1010")
	r3 := MustParse("101*")
	r4 := MustParse("1***")
	key := MustParseKey("1010")

	wantMatch := map[string]bool{"R0": true, "R1": false, "R2": true, "R3": true, "R4": true}
	got := map[string]bool{
		"R0": r0.Match(key), "R1": r1.Match(key), "R2": r2.Match(key),
		"R3": r3.Match(key), "R4": r4.Match(key),
	}
	for name, want := range wantMatch {
		if got[name] != want {
			t.Errorf("%s.Match(1010) = %v, want %v", name, got[name], want)
		}
	}
}

func TestMatchWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	MustParse("10").Match(MustParseKey("101"))
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"10**", "1010", true},
		{"10**", "0110", false},
		{"1***", "*0**", true},
		{"11**", "**00", true},
		{"0000", "0001", false},
		{"****", "1111", true},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Overlaps(b); got != c.want {
			t.Errorf("Overlaps(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps(%s,%s) not symmetric", c.b, c.a)
		}
	}
}

func TestSubsumes(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"10**", "1010", true},
		{"10**", "10**", true},
		{"1010", "10**", false},
		{"****", "0110", true},
		{"1***", "0***", false},
		{"1*1*", "1010", false}, // a cares at pos2 with value 1, b has 1 there -> wait
	}
	// fix the last case properly: 1*1* vs 1010: pos0 1=1 ok, pos2 a=1 b=1 ok -> subsumes
	cases[len(cases)-1].want = true
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Subsumes(b); got != c.want {
			t.Errorf("Subsumes(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualCopy(t *testing.T) {
	a := MustParse("10*1*")
	b := a.Copy()
	if !a.Equal(b) {
		t.Fatal("copy not equal")
	}
	b.SetBit(0, Zero)
	if a.Equal(b) {
		t.Fatal("mutating copy changed original equality")
	}
	if a.BitAt(0) != One {
		t.Fatal("copy shares storage")
	}
	if a.Equal(MustParse("10*1")) {
		t.Fatal("different widths equal")
	}
}

func TestWildcardCount(t *testing.T) {
	if got := MustParse("1**0*").WildcardCount(); got != 3 {
		t.Fatalf("WildcardCount = %d, want 3", got)
	}
}

func TestSlotExtract(t *testing.T) {
	w := NewWord(12)
	w.Slot(0, MustParse("101"))
	w.Slot(3, MustParse("***"))
	w.Slot(6, MustParse("0110"))
	w.Slot(10, MustParse("1*"))
	if got := w.String(); got != "101***01101*" {
		t.Fatalf("slotted word = %q", got)
	}
	if got := w.Extract(6, 4).String(); got != "0110" {
		t.Fatalf("Extract = %q", got)
	}

	k := NewKey(8)
	k.SlotKey(0, MustParseKey("1100"))
	k.SlotKey(4, MustParseKey("0011"))
	if got := k.String(); got != "11000011" {
		t.Fatalf("slotted key = %q", got)
	}
	if got := k.ExtractKey(4, 4).String(); got != "0011" {
		t.Fatalf("ExtractKey = %q", got)
	}
}

func TestFromUintPrefix(t *testing.T) {
	if got := FromUint(0b1010, 4).String(); got != "1010" {
		t.Fatalf("FromUint = %q", got)
	}
	if got := KeyFromUint(0b1010, 4).String(); got != "1010" {
		t.Fatalf("KeyFromUint = %q", got)
	}
	if got := Prefix(0b10100000, 3, 8).String(); got != "101*****" {
		t.Fatalf("Prefix = %q", got)
	}
	if got := Prefix(0, 0, 4).String(); got != "****" {
		t.Fatalf("Prefix len 0 = %q", got)
	}
}

func TestRandomMatchingKeyMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		w := Random(rng, 64, 0.4)
		k := RandomMatchingKey(rng, w)
		if !w.Match(k) {
			t.Fatalf("RandomMatchingKey does not match word %s / key %s", w, k)
		}
	}
}

func TestRandomKeyWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 63, 64, 65, 160} {
		k := RandomKey(rng, width)
		if k.Width() != width {
			t.Fatalf("width = %d", k.Width())
		}
		// round-trip through string to confirm canonical bits
		k2 := MustParseKey(k.String())
		if k2.String() != k.String() {
			t.Fatalf("key string round-trip failed at width %d", width)
		}
	}
}

// Property: Match distributes over Slot — matching a concatenated word
// equals matching each field independently.
func TestQuickSlotMatchDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		a := Random(rng, 8, 0.3)
		b := Random(rng, 8, 0.3)
		w := NewWord(16)
		w.Slot(0, a)
		w.Slot(8, b)
		ka := RandomKey(rng, 8)
		kb := RandomKey(rng, 8)
		k := NewKey(16)
		k.SlotKey(0, ka)
		k.SlotKey(8, kb)
		if w.Match(k) != (a.Match(ka) && b.Match(kb)) {
			t.Fatalf("slot match mismatch: %s|%s vs %s|%s", a, b, ka, kb)
		}
	}
}

// Property: the word-wise Slot writes exactly what a bit-by-bit copy
// would, and leaves every position outside its range untouched, over
// random widths and offsets — ranges inside one storage word, ranges
// straddling word boundaries and ranges spanning several words.
func TestQuickSlotMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		width := 1 + rng.Intn(200)
		n := 1 + rng.Intn(width)
		off := rng.Intn(width - n + 1)
		w := Random(rng, width, 0.3)
		o := Random(rng, n, 0.3)
		want := w.Copy()
		for i := 0; i < n; i++ {
			want.SetBit(off+i, o.BitAt(i))
		}
		got := w.Copy()
		got.Slot(off, o)
		if !got.Equal(want) {
			t.Fatalf("Slot(%d, %s) into %s = %s, want %s", off, o, w, got, want)
		}
	}
}

// TestQuickSetPrefixMatchesSlot: SetPrefix writes what Slot of the
// matching Prefix word writes, fields straddling a storage word and
// filling one whole included, and leaves every other position alone.
func TestQuickSetPrefixMatchesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		width := 1 + rng.Intn(700)
		n := 1 + rng.Intn(min(width, 64))
		off := rng.Intn(width - n + 1)
		plen := rng.Intn(n + 1)
		v := rng.Uint64()
		w := Random(rng, width, 0.3)
		want := w.Copy()
		want.Slot(off, Prefix(v&(^uint64(0)>>(64-n)), plen, n))
		got := w.Copy()
		got.SetPrefix(off, n, v, plen)
		if !got.Equal(want) {
			t.Fatalf("SetPrefix(%d, %d, %#x, %d) into %s = %s, want %s", off, n, v, plen, w, got, want)
		}
	}
}

// Property: Subsumes implies Overlaps, and Subsumes implies every
// matching key of the subsumed word matches the subsuming word.
func TestQuickSubsumeImpliesOverlapAndMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		a := Random(rng, 12, 0.5)
		b := Random(rng, 12, 0.2)
		if a.Subsumes(b) {
			if !a.Overlaps(b) {
				t.Fatalf("Subsumes without Overlaps: %s %s", a, b)
			}
			k := RandomMatchingKey(rng, b)
			if !a.Match(k) {
				t.Fatalf("a=%s subsumes b=%s but key %s of b misses a", a, b, k)
			}
		}
	}
}

// Property: Overlaps is exactly "a common matching key exists" —
// constructively check by merging cared bits.
func TestQuickOverlapWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		a := Random(rng, 10, 0.4)
		b := Random(rng, 10, 0.4)
		if a.Overlaps(b) {
			// Build a witness key: prefer a's cared bits, then b's.
			k := NewKey(10)
			for i := 0; i < 10; i++ {
				switch {
				case a.BitAt(i) != Star:
					k.SetKeyBit(i, a.BitAt(i) == One)
				case b.BitAt(i) != Star:
					k.SetKeyBit(i, b.BitAt(i) == One)
				}
			}
			if !a.Match(k) || !b.Match(k) {
				t.Fatalf("overlap witness failed: a=%s b=%s k=%s", a, b, k)
			}
		} else {
			// No key may match both: sample a few matching keys of a.
			for s := 0; s < 8; s++ {
				k := RandomMatchingKey(rng, a)
				if b.Match(k) {
					t.Fatalf("declared non-overlapping but share key: a=%s b=%s k=%s", a, b, k)
				}
			}
		}
	}
}

// Property (quick): string round-trip for arbitrary ternary strings.
func TestQuickStringRoundTrip(t *testing.T) {
	alphabet := []byte("01*")
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]byte, len(raw))
		for i, r := range raw {
			s[i] = alphabet[int(r)%3]
		}
		w := MustParse(string(s))
		return w.String() == string(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
