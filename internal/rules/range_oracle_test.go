package rules_test

import (
	"sort"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/rules"
	"catcam/internal/ternary"
)

// TestRangeToPrefixesExactCover is the range oracle: for every port
// range the ClassBench generator draws, plus edge ranges, the words
// Rule.Encode emits match a header's port p iff Lo ≤ p ≤ Hi, for all
// 65,536 values of p and on both port fields.
func TestRangeToPrefixesExactCover(t *testing.T) {
	seen := map[rules.PortRange]bool{}
	for _, fam := range classbench.Families() {
		for _, r := range classbench.Generate(classbench.Config{Family: fam, Size: 250, Seed: 1}).Rules {
			seen[r.SrcPort], seen[r.DstPort] = true, true
		}
	}
	for _, r := range []rules.PortRange{
		{Lo: 0, Hi: 0}, {Lo: 0xFFFF, Hi: 0xFFFF}, rules.FullPortRange(),
		{Lo: 1, Hi: 0xFFFE}, {Lo: 0, Hi: 0xFFFE}, {Lo: 1, Hi: 0xFFFF},
		{Lo: 0, Hi: 1023}, {Lo: 1024, Hi: 0xFFFF}, {Lo: 0x7FFF, Hi: 0x8000},
	} {
		seen[r] = true
	}
	for k := 1; k < 16; k++ { // ranges straddling and filling each power-of-two block
		seen[rules.PortRange{Lo: 1<<k - 1, Hi: 1 << k}] = true
		seen[rules.PortRange{Lo: 1 << k, Hi: 1<<(k+1) - 1}] = true
	}
	ranges := make([]rules.PortRange, 0, len(seen))
	for r := range seen {
		ranges = append(ranges, r)
	}
	sort.Slice(ranges, func(i, j int) bool {
		return ranges[i].Lo < ranges[j].Lo || ranges[i].Lo == ranges[j].Lo && ranges[i].Hi < ranges[j].Hi
	})

	// keys[p] carries port p in both fields; the rule under test
	// wildcards every field but the one holding the range.
	keys := make([]ternary.Key, 1<<16)
	for p := range keys {
		keys[p] = rules.EncodeHeader(rules.Header{SrcPort: uint16(p), DstPort: uint16(p)})
	}
	full := rules.FullPortRange()
	for _, pr := range ranges {
		for field, rule := range []rules.Rule{
			{SrcPort: pr, DstPort: full, ProtoWildcard: true},
			{SrcPort: full, DstPort: pr, ProtoWildcard: true},
		} {
			words := rule.Encode()
			for p, k := range keys {
				matched := false
				for _, w := range words {
					if w.Match(k) {
						matched = true
						break
					}
				}
				if want := pr.Contains(uint16(p)); matched != want {
					t.Fatalf("range %v in port field %d: port %d matched=%v, want %v", pr, field, p, matched, want)
				}
			}
		}
	}
	t.Logf("%d ranges checked exhaustively", len(ranges))
}
