package classbench

import (
	"strings"
	"testing"

	"catcam/internal/rules"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Family: ACL, Size: 100, Seed: 7})
	b := Generate(Config{Family: ACL, Size: 100, Seed: 7})
	if len(a.Rules) != len(b.Rules) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs across identical seeds", i)
		}
	}
	c := Generate(Config{Family: ACL, Size: 100, Seed: 8})
	same := true
	for i := range a.Rules {
		if a.Rules[i] != c.Rules[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical rulesets")
	}
}

func TestGenerateValidAndUnique(t *testing.T) {
	for _, fam := range Families() {
		rs := Generate(Config{Family: fam, Size: 1000, Seed: 42})
		if len(rs.Rules) != 1000 {
			t.Fatalf("%v: size = %d", fam, len(rs.Rules))
		}
		if err := rs.Validate(); err != nil {
			t.Fatalf("%v: invalid ruleset: %v", fam, err)
		}
		prios := map[int]bool{}
		for _, r := range rs.Rules {
			if prios[r.Priority] {
				t.Fatalf("%v: duplicate priority %d", fam, r.Priority)
			}
			prios[r.Priority] = true
			if r.Priority < 1 || r.Priority > 65535 {
				t.Fatalf("%v: priority %d outside 16-bit range", fam, r.Priority)
			}
		}
	}
}

func TestGenerateZeroAndSmall(t *testing.T) {
	if rs := Generate(Config{Family: FW, Size: 0, Seed: 1}); len(rs.Rules) != 0 {
		t.Fatal("zero-size ruleset non-empty")
	}
	if rs := Generate(Config{Family: FW, Size: 1, Seed: 1}); len(rs.Rules) != 1 {
		t.Fatal("one-rule ruleset wrong size")
	}
}

// The families must differ structurally: FW has more wildcards than ACL.
func TestFamilyCharacter(t *testing.T) {
	count := func(f Family) (wildSrc, wildProto, fullPorts int) {
		rs := Generate(Config{Family: f, Size: 2000, Seed: 5})
		for _, r := range rs.Rules {
			if r.SrcIP.Len == 0 {
				wildSrc++
			}
			if r.ProtoWildcard {
				wildProto++
			}
			if r.SrcPort.IsFull() {
				fullPorts++
			}
		}
		return
	}
	aclSrc, aclProto, _ := count(ACL)
	fwSrc, fwProto, _ := count(FW)
	if fwSrc <= aclSrc {
		t.Errorf("FW src wildcards (%d) should exceed ACL (%d)", fwSrc, aclSrc)
	}
	if fwProto <= aclProto {
		t.Errorf("FW proto wildcards (%d) should exceed ACL (%d)", fwProto, aclProto)
	}
}

// Rules must overlap enough to build dependency chains (the pools nest).
func TestOverlapDensity(t *testing.T) {
	for _, fam := range Families() {
		rs := Generate(Config{Family: fam, Size: 300, Seed: 11})
		pairs, overlaps := 0, 0
		for i := 0; i < len(rs.Rules); i++ {
			for j := i + 1; j < len(rs.Rules); j++ {
				pairs++
				if rs.Rules[i].Overlaps(rs.Rules[j]) {
					overlaps++
				}
			}
		}
		frac := float64(overlaps) / float64(pairs)
		if frac < 0.001 {
			t.Errorf("%v: overlap fraction %.4f too low for dependency structure", fam, frac)
		}
		if frac > 0.9 {
			t.Errorf("%v: overlap fraction %.4f implausibly high", fam, frac)
		}
	}
}

func TestUpdateTraceBalancedAndSizePreserving(t *testing.T) {
	rs := Generate(Config{Family: ACL, Size: 500, Seed: 3})
	trace := UpdateTrace(rs, 1000, 9)
	if len(trace) != 1000 {
		t.Fatalf("trace length = %d", len(trace))
	}
	ins, del := 0, 0
	liveDelta := 0
	for _, u := range trace {
		switch u.Op {
		case OpInsert:
			ins++
			liveDelta++
		case OpDelete:
			del++
			liveDelta--
		}
	}
	if ins+del != 1000 {
		t.Fatal("unknown op in trace")
	}
	// roughly balanced (49/51 random walk tolerance)
	if ins < 400 || del < 400 {
		t.Fatalf("trace unbalanced: %d inserts, %d deletes", ins, del)
	}
	if liveDelta > 100 || liveDelta < -100 {
		t.Fatalf("live set drifted by %d", liveDelta)
	}
}

func TestUpdateTraceInsertsAreReinsertionsWithFreshIDs(t *testing.T) {
	rs := Generate(Config{Family: IPC, Size: 50, Seed: 21})
	trace := UpdateTrace(rs, 200, 22)
	maxOrig := 0
	for _, r := range rs.Rules {
		if r.ID > maxOrig {
			maxOrig = r.ID
		}
	}
	deletedPrios := map[int]int{}
	for _, u := range trace {
		if u.Op == OpDelete {
			deletedPrios[u.Rule.Priority]++
		} else {
			if u.Rule.ID <= maxOrig {
				t.Fatalf("insert reuses original ID %d", u.Rule.ID)
			}
			if deletedPrios[u.Rule.Priority] == 0 {
				t.Fatalf("insert of priority %d that was never deleted", u.Rule.Priority)
			}
			deletedPrios[u.Rule.Priority]--
		}
	}
}

func TestUpdateTraceDeterministic(t *testing.T) {
	rs := Generate(Config{Family: FW, Size: 100, Seed: 31})
	a := UpdateTrace(rs, 100, 5)
	b := UpdateTrace(rs, 100, 5)
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Rule != b[i].Rule {
			t.Fatalf("trace differs at %d across identical seeds", i)
		}
	}
}

func TestPacketTraceLocality(t *testing.T) {
	rs := Generate(Config{Family: ACL, Size: 200, Seed: 13})
	headers := PacketTrace(rs, 500, 0.9, 17)
	if len(headers) != 500 {
		t.Fatalf("trace length = %d", len(headers))
	}
	hits := 0
	for _, h := range headers {
		if _, ok := rs.Best(h); ok {
			hits++
		}
	}
	// with 90% locality at least ~85% of headers should match some rule
	if hits < 400 {
		t.Fatalf("only %d/500 headers matched; locality broken", hits)
	}
}

func TestPacketTraceZeroLocality(t *testing.T) {
	rs := Generate(Config{Family: ACL, Size: 10, Seed: 13})
	headers := PacketTrace(rs, 100, 0, 17)
	if len(headers) != 100 {
		t.Fatal("wrong length")
	}
}

func TestFamilyString(t *testing.T) {
	if ACL.String() != "ACL" || FW.String() != "FW" || IPC.String() != "IPC" {
		t.Fatal("family names wrong")
	}
	if Family(99).String() == "" {
		t.Fatal("unknown family has empty name")
	}
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Fatal("op names wrong")
	}
}

func TestParseFamily(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Family
		ok   bool
	}{
		{"ACL", ACL, true},
		{"acl", ACL, true},
		{"Fw", FW, true},
		{"ipc", IPC, true},
		{"IPC", IPC, true},
		{"", 0, false},
		{"acl ", 0, false},
		{"Family(0)", 0, false},
		{"tcam", 0, false},
	} {
		got, err := ParseFamily(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, f := range Families() {
		if got, err := ParseFamily(f.String()); err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v; want the family back", f, got, err)
		}
	}
}

func TestGenerateLargeKeepsPrioritiesDistinct(t *testing.T) {
	rs := Generate(Config{Family: ACL, Size: 40000, Seed: 19})
	seen := make(map[int]bool, len(rs.Rules))
	for _, r := range rs.Rules {
		if seen[r.Priority] {
			t.Fatal("duplicate priority in 40K ruleset")
		}
		seen[r.Priority] = true
	}
}

var _ = rules.Rule{} // silence unused-import drift if helpers move

func TestAnalyzeStats(t *testing.T) {
	rs := Generate(Config{Family: FW, Size: 600, Seed: 77})
	s := Analyze(rs)
	if s.Rules != 600 || s.Entries < 600 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.ExpansionFactor < 1 {
		t.Fatalf("expansion factor %v < 1", s.ExpansionFactor)
	}
	if s.SrcWildcardFrac <= 0 || s.SrcWildcardFrac >= 1 {
		t.Fatalf("src wildcard frac %v", s.SrcWildcardFrac)
	}
	if s.OverlapFraction <= 0 {
		t.Fatal("no overlap sampled on an FW set")
	}
	if s.MaxNestingDepth < 2 {
		t.Fatalf("nesting depth %d; pools should nest", s.MaxNestingDepth)
	}
	out := s.String()
	if !strings.Contains(out, "expansion") || !strings.Contains(out, "nesting") {
		t.Fatalf("stats string incomplete:\n%s", out)
	}
	if Analyze(&rules.Ruleset{}).Rules != 0 {
		t.Fatal("empty analyze wrong")
	}
}

func TestFamiliesDifferInStats(t *testing.T) {
	acl := Analyze(Generate(Config{Family: ACL, Size: 800, Seed: 3}))
	fw := Analyze(Generate(Config{Family: FW, Size: 800, Seed: 3}))
	if fw.SrcWildcardFrac <= acl.SrcWildcardFrac {
		t.Fatalf("FW src wildcards (%.3f) should exceed ACL (%.3f)",
			fw.SrcWildcardFrac, acl.SrcWildcardFrac)
	}
	if fw.ExpansionFactor <= acl.ExpansionFactor {
		t.Fatalf("FW expansion (%.2f) should exceed ACL (%.2f)",
			fw.ExpansionFactor, acl.ExpansionFactor)
	}
}
