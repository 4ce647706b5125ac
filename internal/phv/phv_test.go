package phv

import (
	"math/rand"
	"testing"

	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/ternary"
)

func TestStandardLayoutValid(t *testing.T) {
	l := StandardLayout()
	if len(l.Fields()) < 15 {
		t.Fatalf("standard layout has %d fields", len(l.Fields()))
	}
	for _, name := range []string{"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport", "ipv4.proto"} {
		if _, ok := l.Field(name); !ok {
			t.Fatalf("standard layout lacks %q", name)
		}
	}
	if _, ok := l.Field("nope"); ok {
		t.Fatal("unknown field found")
	}
}

func TestNewLayoutValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
	}{
		{"overlap", []Field{{Name: "a", Offset: 0, Width: 8}, {Name: "b", Offset: 4, Width: 8}}},
		{"dup", []Field{{Name: "a", Offset: 0, Width: 8}, {Name: "a", Offset: 8, Width: 8}}},
		{"range", []Field{{Name: "a", Offset: Bits - 4, Width: 8}}},
		{"zero-width", []Field{{Name: "a", Offset: 0, Width: 0}}},
	}
	for _, c := range cases {
		if _, err := NewLayout(c.fields); err == nil {
			t.Errorf("%s: invalid layout accepted", c.name)
		}
	}
}

func TestVectorFieldRoundTrip(t *testing.T) {
	l := StandardLayout()
	p := NewVector()
	src, _ := l.Field("ipv4.src")
	sport, _ := l.Field("l4.sport")
	flags, _ := l.Field("tcp.flags")
	p.SetField(src, 0x0A0B0C0D)
	p.SetField(sport, 443)
	p.SetField(flags, 0x1AB)
	if got := p.FieldValue(src); got != 0x0A0B0C0D {
		t.Fatalf("src = %x", got)
	}
	if got := p.FieldValue(sport); got != 443 {
		t.Fatalf("sport = %d", got)
	}
	if got := p.FieldValue(flags); got != 0x1AB {
		t.Fatalf("flags = %x", got)
	}
}

func TestFromHeader(t *testing.T) {
	l := StandardLayout()
	h := rules.Header{SrcIP: 0xC0A80101, DstIP: 0x08080808, SrcPort: 1234, DstPort: 53, Proto: 17}
	p := FromHeader(l, h)
	get := func(name string) uint64 {
		f, _ := l.Field(name)
		return p.FieldValue(f)
	}
	if get("ipv4.src") != 0xC0A80101 || get("ipv4.dst") != 0x08080808 {
		t.Fatal("addresses wrong")
	}
	if get("l4.sport") != 1234 || get("l4.dport") != 53 || get("ipv4.proto") != 17 {
		t.Fatal("l4 fields wrong")
	}
	if get("eth.type") != 0x0800 || get("ipv4.version") != 4 {
		t.Fatal("parser constants wrong")
	}
}

func fiveTupleExtractor(t *testing.T, width int) *Extractor {
	t.Helper()
	e := NewExtractor(StandardLayout(), width)
	for _, f := range []string{"ipv4.src", "ipv4.dst", "l4.sport", "l4.dport", "ipv4.proto"} {
		if err := e.Select(f); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestExtractorSelectBudget(t *testing.T) {
	e := NewExtractor(StandardLayout(), 40)
	if err := e.Select("ipv4.src"); err != nil {
		t.Fatal(err)
	}
	if err := e.Select("ipv4.dst"); err == nil {
		t.Fatal("over-budget select accepted")
	}
	if err := e.Select("no.such"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if e.SelectedBits() != 32 || e.KeyWidth() != 40 {
		t.Fatal("budget accounting wrong")
	}
}

func TestExtractKeyMatchesEncodeRule(t *testing.T) {
	e := fiveTupleExtractor(t, 640)
	l := StandardLayout()

	word, err := e.EncodeRule([]FieldSpec{
		PrefixSpec("ipv4.src", 0x0A000000, 8, 32),
		Wildcard("ipv4.dst", 32),
		Exact("l4.dport", 80, 16),
		Exact("ipv4.proto", 6, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	match := rules.Header{SrcIP: 0x0A636363, DstIP: 0xDEADBEEF, SrcPort: 999, DstPort: 80, Proto: 6}
	miss := rules.Header{SrcIP: 0x0B636363, DstIP: 0xDEADBEEF, SrcPort: 999, DstPort: 80, Proto: 6}
	if !word.Match(e.ExtractKey(FromHeader(l, match))) {
		t.Fatal("matching header rejected")
	}
	if word.Match(e.ExtractKey(FromHeader(l, miss))) {
		t.Fatal("non-matching header accepted")
	}
	missPort := match
	missPort.DstPort = 81
	if word.Match(e.ExtractKey(FromHeader(l, missPort))) {
		t.Fatal("wrong port accepted")
	}
}

func TestEncodeRuleValidation(t *testing.T) {
	e := fiveTupleExtractor(t, 640)
	if _, err := e.EncodeRule([]FieldSpec{Exact("no.such", 1, 8)}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := e.EncodeRule([]FieldSpec{Exact("ipv4.src", 1, 16)}); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := e.EncodeRule([]FieldSpec{Exact("eth.dst", 1, 48)}); err == nil {
		t.Fatal("unselected field accepted")
	}
}

// End-to-end: a 640-bit prototype device driven entirely through the
// PHV front end — rules authored as field specs, packets parsed into
// PHVs and extracted into search keys.
func TestPrototypeIntegration(t *testing.T) {
	e := fiveTupleExtractor(t, 640)
	l := StandardLayout()
	d := core.NewDevice(core.Config{Subtables: 4, SubtableCapacity: 16, KeyWidth: 640})

	insert := func(id, prio, action int, specs []FieldSpec) {
		word, err := e.EncodeRule(specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertWord(word, prio, id, action); err != nil {
			t.Fatal(err)
		}
	}

	insert(1, 5, 50, []FieldSpec{
		PrefixSpec("ipv4.src", 0x0A000000, 8, 32),
		Exact("l4.dport", 80, 16),
		Exact("ipv4.proto", 6, 8),
	})
	insert(2, 9, 90, []FieldSpec{
		PrefixSpec("ipv4.src", 0x0A0A0000, 16, 32),
	})

	classify := func(h rules.Header) (int, bool) {
		key := e.ExtractKey(FromHeader(l, h))
		r := d.LookupBatch([]ternary.Key{key}, nil)[0]
		return r.Entry.Action, r.OK
	}

	if act, ok := classify(rules.Header{SrcIP: 0x0A0A0101, DstPort: 80, Proto: 6}); !ok || act != 90 {
		t.Fatalf("both match: got %d,%v want 90 (higher priority)", act, ok)
	}
	if act, ok := classify(rules.Header{SrcIP: 0x0A010101, DstPort: 80, Proto: 6}); !ok || act != 50 {
		t.Fatalf("only rule 1: got %d,%v want 50", act, ok)
	}
	if _, ok := classify(rules.Header{SrcIP: 0x0B010101, DstPort: 80, Proto: 6}); ok {
		t.Fatal("no rule should match")
	}
	// Word-level deletes work through the same rule handle.
	if _, err := d.DeleteRule(2); err != nil {
		t.Fatal(err)
	}
	if act, ok := classify(rules.Header{SrcIP: 0x0A0A0101, DstPort: 80, Proto: 6}); !ok || act != 50 {
		t.Fatalf("after delete: got %d,%v want 50", act, ok)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Property: extraction is linear — per-field round trips survive random
// values.
func TestQuickFieldRoundTrip(t *testing.T) {
	l := StandardLayout()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		p := NewVector()
		want := map[string]uint64{}
		for _, f := range l.Fields() {
			if f.Width > 64 {
				continue
			}
			v := rng.Uint64() & ((1 << uint(f.Width)) - 1)
			p.SetField(f, v)
			want[f.Name] = v
		}
		for _, f := range l.Fields() {
			if f.Width > 64 {
				continue
			}
			if got := p.FieldValue(f); got != want[f.Name] {
				t.Fatalf("field %q = %x, want %x", f.Name, got, want[f.Name])
			}
		}
	}
}

var _ = ternary.NewWord // import anchor
