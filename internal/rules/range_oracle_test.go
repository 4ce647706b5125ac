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
// Rule.Encode emits match a header's TupleBits-wide key on port p iff
// Lo ≤ p ≤ Hi, for all 65,536 values of p and on both port fields; and
// so do the words of Rule.EncodeWidth(160) against the header's
// 160-wide key, the layout with the port predicate columns. The wide
// check also runs every [lo, 65535] with lo in 0…HighPorts+1, the
// ranges at and around the predicate's.
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
	flat := sortedRanges(seen)
	for lo := 0; lo <= rules.HighPorts+1; lo++ {
		seen[rules.PortRange{Lo: uint16(lo), Hi: 0xFFFF}] = true
	}
	wide := sortedRanges(seen)

	// keys[p] carries port p in both fields; the rule under test
	// wildcards every field but the one holding the range.
	keys, wideKeys := make([]ternary.Key, 1<<16), make([]ternary.Key, 1<<16)
	for p := range keys {
		h := rules.Header{SrcPort: uint16(p), DstPort: uint16(p)}
		keys[p] = rules.EncodeHeader(h)
		wideKeys[p] = ternary.NewKey(160)
		rules.EncodeHeaderInto(&wideKeys[p], h)
	}
	checkCover(t, flat, keys, rules.Rule.Encode)
	checkCover(t, wide, wideKeys, func(r rules.Rule) []ternary.Word { return r.EncodeWidth(160) })
	t.Logf("%d ranges checked exhaustively at TupleBits, %d at width 160", len(flat), len(wide))
}

func sortedRanges(set map[rules.PortRange]bool) []rules.PortRange {
	ranges := make([]rules.PortRange, 0, len(set))
	for r := range set {
		ranges = append(ranges, r)
	}
	sort.Slice(ranges, func(i, j int) bool {
		return ranges[i].Lo < ranges[j].Lo || ranges[i].Lo == ranges[j].Lo && ranges[i].Hi < ranges[j].Hi
	})
	return ranges
}

// checkCover holds encode's words for each range, in each port field,
// to the range: they match keys[p] iff the range contains p.
func checkCover(t *testing.T, ranges []rules.PortRange, keys []ternary.Key, encode func(rules.Rule) []ternary.Word) {
	t.Helper()
	full := rules.FullPortRange()
	for _, pr := range ranges {
		for field, rule := range []rules.Rule{
			{SrcPort: pr, DstPort: full, ProtoWildcard: true},
			{SrcPort: full, DstPort: pr, ProtoWildcard: true},
		} {
			words := encode(rule)
			for p, k := range keys {
				// Last word first: a cover ends with its widest rows
				// (the predicate row, the largest blocks), which most
				// ports match, so the scan stops early.
				matched := false
				for i := len(words) - 1; i >= 0 && !matched; i-- {
					matched = words[i].Match(k)
				}
				if want := pr.Contains(uint16(p)); matched != want {
					t.Fatalf("range %v in port field %d at width %d: port %d matched=%v, want %v",
						pr, field, k.Width(), p, matched, want)
				}
			}
		}
	}
}
