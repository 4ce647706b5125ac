package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"catcam/internal/ternary"
)

func TestPortRange(t *testing.T) {
	r := PortRange{80, 443}
	if !r.Contains(80) || !r.Contains(443) || !r.Contains(100) {
		t.Fatal("range membership wrong")
	}
	if r.Contains(79) || r.Contains(444) {
		t.Fatal("range over-matches")
	}
	if !FullPortRange().IsFull() || !FullPortRange().Contains(0) || !FullPortRange().Contains(65535) {
		t.Fatal("full range wrong")
	}
	if (PortRange{5, 4}).Valid() {
		t.Fatal("inverted range declared valid")
	}
	if got := (PortRange{80, 80}).String(); got != "80" {
		t.Fatalf("String = %q", got)
	}
	if got := FullPortRange().String(); got != "*" {
		t.Fatalf("String = %q", got)
	}
}

func TestPrefix(t *testing.T) {
	p := Prefix{Addr: 0xC0A80000, Len: 16} // 192.168.0.0/16
	if !p.Contains(0xC0A80101) {
		t.Fatal("prefix should contain 192.168.1.1")
	}
	if p.Contains(0xC0A90101) {
		t.Fatal("prefix should not contain 192.169.1.1")
	}
	if !(Prefix{Len: 0}).Contains(0xFFFFFFFF) {
		t.Fatal("/0 should contain everything")
	}
	if got := p.String(); got != "192.168.0.0/16" {
		t.Fatalf("String = %q", got)
	}
	c := Prefix{Addr: 0xC0A8FFFF, Len: 16}.Canonical()
	if c.Addr != 0xC0A80000 {
		t.Fatalf("Canonical = %08x", c.Addr)
	}
	if got := (Prefix{Addr: 5, Len: 40}).Canonical(); got.Len != 32 {
		t.Fatalf("Canonical clamps Len: got %d", got.Len)
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{
		ID: 1, Priority: 10,
		SrcIP:   Prefix{0x0A000000, 8},  // 10.0.0.0/8
		DstIP:   Prefix{0xC0A80100, 24}, // 192.168.1.0/24
		SrcPort: FullPortRange(),
		DstPort: PortRange{80, 80},
		Proto:   6,
	}
	h := Header{SrcIP: 0x0A010203, DstIP: 0xC0A80105, SrcPort: 1234, DstPort: 80, Proto: 6}
	if !r.Matches(h) {
		t.Fatal("rule should match header")
	}
	h.Proto = 17
	if r.Matches(h) {
		t.Fatal("rule should not match wrong proto")
	}
	r.ProtoWildcard = true
	if !r.Matches(h) {
		t.Fatal("proto wildcard should match any proto")
	}
	h.DstPort = 81
	if r.Matches(h) {
		t.Fatal("rule should not match wrong port")
	}
}

func TestBeforeTotalOrder(t *testing.T) {
	a := Rule{ID: 1, Priority: 5}
	b := Rule{ID: 2, Priority: 7}
	c := Rule{ID: 3, Priority: 5}
	if !a.Before(b) || b.Before(a) {
		t.Fatal("priority ordering wrong")
	}
	if !a.Before(c) || c.Before(a) {
		t.Fatal("tie-break by ID wrong")
	}
	if a.Before(a) {
		t.Fatal("Before not irreflexive")
	}
}

func TestRuleOverlaps(t *testing.T) {
	base := Rule{
		SrcIP: Prefix{0x0A000000, 8}, DstIP: Prefix{Len: 0},
		SrcPort: FullPortRange(), DstPort: PortRange{80, 100}, ProtoWildcard: true,
	}
	same := base
	same.DstPort = PortRange{90, 200}
	if !base.Overlaps(same) {
		t.Fatal("overlapping port ranges should overlap")
	}
	disjointPort := base
	disjointPort.DstPort = PortRange{200, 300}
	if base.Overlaps(disjointPort) {
		t.Fatal("disjoint dst ports should not overlap")
	}
	disjointIP := base
	disjointIP.SrcIP = Prefix{0x0B000000, 8}
	if base.Overlaps(disjointIP) {
		t.Fatal("disjoint prefixes should not overlap")
	}
	nested := base
	nested.SrcIP = Prefix{0x0A0A0000, 16}
	if !base.Overlaps(nested) {
		t.Fatal("nested prefixes overlap")
	}
	protoA, protoB := base, base
	protoA.ProtoWildcard, protoA.Proto = false, 6
	protoB.ProtoWildcard, protoB.Proto = false, 17
	if protoA.Overlaps(protoB) {
		t.Fatal("different exact protocols should not overlap")
	}
}

// Overlap must agree with the existence of a common matching header.
func TestOverlapAgainstSampledHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a, b := randomRule(rng, 1), randomRule(rng, 2)
		if !a.Overlaps(b) {
			for i := 0; i < 20; i++ {
				h := randomHeaderMatching(rng, a)
				if b.Matches(h) {
					t.Fatalf("rules declared disjoint share header:\n%s\n%s\n%+v", a, b, h)
				}
			}
		}
	}
}

func TestRangeToPrefixes(t *testing.T) {
	cases := []struct {
		r    PortRange
		want int // expected number of prefixes
	}{
		{PortRange{0, 0xFFFF}, 1},
		{PortRange{80, 80}, 1},
		{PortRange{0, 1023}, 1},
		{PortRange{1024, 0xFFFF}, 6}, // classic well-known expansion
		{PortRange{1, 65534}, 30},    // worst case 2w-2
	}
	for _, c := range cases {
		got := RangeToPrefixes(c.r)
		if len(got) != c.want {
			t.Errorf("RangeToPrefixes(%v) yields %d prefixes, want %d", c.r, len(got), c.want)
		}
	}
	if RangeToPrefixes(PortRange{5, 4}) != nil {
		t.Error("invalid range should yield nil")
	}
}

// Property: encoded ternary words match a key iff the rule matches the header.
func TestEncodeAgreesWithMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		r := randomRule(rng, trial)
		words := r.Encode()
		if len(words) != r.ExpansionCount() {
			t.Fatalf("ExpansionCount=%d but Encode yielded %d", r.ExpansionCount(), len(words))
		}
		for i := 0; i < 20; i++ {
			var h Header
			if i%2 == 0 {
				h = randomHeaderMatching(rng, r)
			} else {
				h = randomHeader(rng)
			}
			key := EncodeHeader(h)
			anyMatch := false
			for _, w := range words {
				if w.Match(key) {
					anyMatch = true
					break
				}
			}
			if anyMatch != r.Matches(h) {
				t.Fatalf("encode/match disagreement: rule %s header %+v encoded=%v semantic=%v",
					r, h, anyMatch, r.Matches(h))
			}
		}
	}
}

func TestEncodeWidth(t *testing.T) {
	r := randomRule(rand.New(rand.NewSource(1)), 9)
	for _, w := range r.Encode() {
		if w.Width() != TupleBits {
			t.Fatalf("encoded width = %d, want %d", w.Width(), TupleBits)
		}
	}
	if EncodeHeader(randomHeader(rand.New(rand.NewSource(2)))).Width() != TupleBits {
		t.Fatal("header key width wrong")
	}
}

// TestEncodeHeaderIntoLayout holds EncodeHeaderInto at several key
// widths to a key built bit by bit: the five fields at the top, the two
// port predicates next when the key has PredicateWidth positions, zeros
// below, whatever the buffer held before. A key narrower than the tuple
// panics.
func TestEncodeHeaderIntoLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hs := []Header{{}, {SrcPort: 1023, DstPort: 1024}, {SrcPort: 1024, DstPort: 1023},
		{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: 0xFFFF, DstPort: 0xFFFF, Proto: 0xFF}}
	for i := 0; i < 50; i++ {
		hs = append(hs, randomHeader(rng))
	}
	for _, width := range []int{TupleBits, TupleBits + 1, PredicateWidth, 128, 160, 640} {
		for _, h := range hs {
			want := ternary.NewKey(width)
			for _, f := range []struct {
				off, bits int
				v         uint64
			}{
				{srcIPOff, SrcIPBits, uint64(h.SrcIP)}, {dstIPOff, DstIPBits, uint64(h.DstIP)},
				{srcPortOff, SrcPortBits, uint64(h.SrcPort)}, {dstPortOff, DstPortBits, uint64(h.DstPort)},
				{protoOff, ProtoBits, uint64(h.Proto)},
			} {
				want.SlotKey(f.off, ternary.KeyFromUint(f.v, f.bits))
			}
			if width >= PredicateWidth {
				want.SetKeyBit(srcHighOff, h.SrcPort >= HighPorts)
				want.SetKeyBit(dstHighOff, h.DstPort >= HighPorts)
			}
			got := ternary.NewKey(width)
			for i := 0; i < width; i++ { // stale contents the encoder must overwrite
				got.SetKeyBit(i, true)
			}
			EncodeHeaderInto(&got, h)
			if got.String() != want.String() {
				t.Fatalf("width %d header %+v:\n got %s\nwant %s", width, h, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a key narrower than the tuple was accepted")
		}
	}()
	k := ternary.NewKey(TupleBits - 1)
	EncodeHeaderInto(&k, Header{})
}

// BenchmarkEncodeHeaderInto times the header encoder at the tuple's
// width and at a Compact device's, with the port predicates.
func BenchmarkEncodeHeaderInto(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	hs := make([]Header, 1024)
	for i := range hs {
		hs[i] = randomHeader(rng)
	}
	for _, width := range []int{TupleBits, 160} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			k := ternary.NewKey(width)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EncodeHeaderInto(&k, hs[i%len(hs)])
			}
		})
	}
}

func TestRulesetBest(t *testing.T) {
	rs := &Ruleset{Rules: []Rule{
		{ID: 1, Priority: 1, SrcIP: Prefix{Len: 0}, DstIP: Prefix{Len: 0},
			SrcPort: FullPortRange(), DstPort: FullPortRange(), ProtoWildcard: true, Action: 100},
		{ID: 2, Priority: 9, SrcIP: Prefix{0x0A000000, 8}, DstIP: Prefix{Len: 0},
			SrcPort: FullPortRange(), DstPort: FullPortRange(), ProtoWildcard: true, Action: 200},
	}}
	got, ok := rs.Best(Header{SrcIP: 0x0A010101})
	if !ok || got.ID != 2 {
		t.Fatalf("Best = %v,%v; want rule 2", got.ID, ok)
	}
	got, ok = rs.Best(Header{SrcIP: 0x0B010101})
	if !ok || got.ID != 1 {
		t.Fatalf("Best fallback = %v,%v; want rule 1", got.ID, ok)
	}
}

func TestRulesetBestTieBreak(t *testing.T) {
	all := Rule{SrcIP: Prefix{Len: 0}, DstIP: Prefix{Len: 0},
		SrcPort: FullPortRange(), DstPort: FullPortRange(), ProtoWildcard: true}
	r1, r2 := all, all
	r1.ID, r1.Priority = 1, 5
	r2.ID, r2.Priority = 2, 5
	rs := &Ruleset{Rules: []Rule{r1, r2}}
	got, ok := rs.Best(Header{})
	if !ok || got.ID != 2 {
		t.Fatalf("tie-break: got rule %d, want 2 (newer)", got.ID)
	}
}

func TestRulesetValidate(t *testing.T) {
	good := &Ruleset{Rules: []Rule{
		{ID: 1, SrcPort: FullPortRange(), DstPort: FullPortRange()},
		{ID: 2, SrcPort: FullPortRange(), DstPort: FullPortRange()},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid ruleset rejected: %v", err)
	}
	dup := &Ruleset{Rules: []Rule{
		{ID: 1, SrcPort: FullPortRange(), DstPort: FullPortRange()},
		{ID: 1, SrcPort: FullPortRange(), DstPort: FullPortRange()},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	bad := &Ruleset{Rules: []Rule{{ID: 1, SrcPort: PortRange{9, 1}, DstPort: FullPortRange()}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid port range accepted")
	}
	badLen := &Ruleset{Rules: []Rule{{ID: 1, SrcIP: Prefix{0, 33},
		SrcPort: FullPortRange(), DstPort: FullPortRange()}}}
	if err := badLen.Validate(); err == nil {
		t.Fatal("invalid prefix length accepted")
	}
}

func TestByID(t *testing.T) {
	rs := &Ruleset{Rules: []Rule{{ID: 5, Priority: 1}}}
	if r, ok := rs.ByID(5); !ok || r.ID != 5 {
		t.Fatal("ByID failed to find rule")
	}
	if _, ok := rs.ByID(6); ok {
		t.Fatal("ByID found nonexistent rule")
	}
}

// Encoded-word overlap must be implied by semantic rule overlap for
// single-word rules (words may under-overlap only due to expansion).
func TestEncodedOverlapAgreesForExactRules(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		a, b := randomRule(rng, 1), randomRule(rng, 2)
		// restrict to rules with trivially-expanding ranges
		a.SrcPort, a.DstPort = FullPortRange(), FullPortRange()
		b.SrcPort, b.DstPort = FullPortRange(), FullPortRange()
		wa, wb := a.Encode()[0], b.Encode()[0]
		if wa.Overlaps(wb) != a.Overlaps(b) {
			t.Fatalf("encoded overlap mismatch:\n%s\n%s", a, b)
		}
	}
}

var _ = ternary.NewWord // keep import if helpers change

func randomRule(rng *rand.Rand, id int) Rule {
	randPrefix := func() Prefix {
		l := rng.Intn(33)
		return Prefix{Addr: rng.Uint32(), Len: l}.Canonical()
	}
	randRange := func() PortRange {
		switch rng.Intn(3) {
		case 0:
			return FullPortRange()
		case 1:
			p := uint16(rng.Intn(65536))
			return PortRange{p, p}
		default:
			lo := uint16(rng.Intn(65536))
			hi := lo + uint16(rng.Intn(int(65535-lo)+1))
			return PortRange{lo, hi}
		}
	}
	r := Rule{
		ID: id, Priority: rng.Intn(1000),
		SrcIP: randPrefix(), DstIP: randPrefix(),
		SrcPort: randRange(), DstPort: randRange(),
	}
	if rng.Intn(2) == 0 {
		r.ProtoWildcard = true
	} else {
		r.Proto = uint8(rng.Intn(256))
	}
	return r
}

func randomHeader(rng *rand.Rand) Header {
	return Header{
		SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		Proto: uint8(rng.Intn(256)),
	}
}

// randomHeaderMatching returns a header matching r.
func randomHeaderMatching(rng *rand.Rand, r Rule) Header {
	h := randomHeader(rng)
	fix32 := func(p Prefix, v uint32) uint32 {
		if p.Len == 0 {
			return v
		}
		shift := uint(32 - p.Len)
		return (p.Addr >> shift << shift) | (v & ((1 << shift) - 1))
	}
	h.SrcIP = fix32(r.SrcIP, h.SrcIP)
	h.DstIP = fix32(r.DstIP, h.DstIP)
	h.SrcPort = r.SrcPort.Lo + uint16(rng.Intn(int(r.SrcPort.Hi-r.SrcPort.Lo)+1))
	h.DstPort = r.DstPort.Lo + uint16(rng.Intn(int(r.DstPort.Hi-r.DstPort.Lo)+1))
	if !r.ProtoWildcard {
		h.Proto = r.Proto
	}
	return h
}
