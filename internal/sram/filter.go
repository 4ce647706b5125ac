package sram

import (
	"math/bits"
	"sort"

	"catcam/internal/ternary"
)

// This file holds the bit-selection filter (DESIGN.md §8), the host's
// answer to replaying a parallel search serially: before searching a
// frozen view, a lookup asks it whether any valid entry could match the
// key on FilterGroups groups of FilterBits chosen key positions, and
// skips the search when none could. The filter is exact about matches:
// an entry that matches the key agrees with it on every position, so
// its group patterns are among those the view admits. It is host-side
// only — a skipped search is still charged to the model (Charge) — so
// the positions may be chosen freely; a good choice only makes it skip
// more. The technique is bit-selection partitioning from TCAM power
// work (Zane, Narlikar & Basu, "CoolCAMs", INFOCOM 2003).

// The filter's shape: FilterGroups groups of FilterBits positions, so a
// key has one filterPatterns-valued pattern per group. wordPatterns
// gathers each plane's FilterGroups*FilterBits bits of an entry word
// into one 64-bit register. Nine bits a group, not eight: a subtable
// holding rules of few rows holds many distinct rules, whose patterns
// fill a 256-pattern bitmap; on ClassBench ACL-5K with the port
// predicate columns (DESIGN.md §18), probed with 16,384 PacketTrace
// headers at locality 0.8, a lookup is admitted to 11.25 subtables on
// table seed 1 and 12.59 on seed 5 at 4×9, against 15–17 at 4×8, for
// 128 more bytes a view.
const (
	FilterGroups   = 4
	FilterBits     = 9
	filterPatterns = 1 << FilterBits
)

// Selection is the filter's choice of key positions: pattern bit j of
// group g is the key bit at storage position pos[g][j] (position 0 is
// the least significant, as in ternary.Word.PlaneWords). One selection
// is shared by every array of a device, by the views frozen from them
// and by the epochs that publish those views, so it is never written
// after SelectPositions builds it.
//
//catcam:snapshot
type Selection struct {
	pos [FilterGroups][FilterBits]uint16
	// at locates pos[g][j] in a packed plane, at index g*FilterBits+j:
	// the index of the word holding it and its shift within that word,
	// worked out once here for the gather an entry write or leave runs
	// (wordPatterns).
	at [FilterGroups * FilterBits]planeBit
}

// planeBit is where one position lives in a packed plane.
type planeBit struct {
	word  uint16
	shift uint8
}

// SelectPositions picks the FilterGroups*FilterBits positions of a
// width-wide key with the highest scores, among equal scores the most
// significant first, and deals them to the groups in turn: the best
// position opens group 0, the next group 1, and so on, so every group
// mixes strong and weak positions. (On ClassBench ACL-5K that left a
// lookup 13.8 subtables to search, against 24.5 when group 0 took the
// top 8.) A nil scores counts as all zero. A key narrower than the
// selection repeats positions, which leaves the filter exact, only
// weaker.
func SelectPositions(width int, scores []int) *Selection {
	byScore := make([]int, width)
	for i := range byScore {
		byScore[i] = width - 1 - i
	}
	if scores != nil {
		sort.SliceStable(byScore, func(a, b int) bool { return scores[byScore[a]] > scores[byScore[b]] })
	}
	var pos [FilterGroups][FilterBits]uint16
	for i := 0; i < FilterGroups*FilterBits; i++ {
		pos[i%FilterGroups][i/FilterGroups] = uint16(byScore[i%width])
	}
	return selectionOf(pos)
}

// selectionOf returns the selection of the given positions, each
// located in a packed plane.
func selectionOf(pos [FilterGroups][FilterBits]uint16) *Selection {
	s := &Selection{pos: pos}
	for g := range pos {
		for j, p := range pos[g] {
			s.at[g*FilterBits+j] = planeBit{word: p / 64, shift: uint8(p % 64)}
		}
	}
	return s
}

// Patterns extracts key k's pattern in every group.
//
//catcam:hotpath
func (s *Selection) Patterns(k ternary.Key) [FilterGroups]uint16 {
	return s.patterns(k.Words())
}

// patterns gathers the selected bits of a packed key plane: bit j of
// pattern g is the plane's bit at s.pos[g][j].
//
//catcam:hotpath
func (s *Selection) patterns(plane []uint64) [FilterGroups]uint16 {
	var pats [FilterGroups]uint16
	for g := range s.pos {
		var p uint
		for j, pos := range s.pos[g] {
			p |= uint(plane[pos>>6]>>(pos&63)&1) << j
		}
		pats[g] = uint16(p)
	}
	return pats
}

// wordPatterns gathers an entry word's patterns from its two planes in
// one pass: fixed from the value plane, cared from the care plane, bit
// j of group g from position s.pos[g][j] of each. Each plane gathers
// into one register, bit g*FilterBits+j for that position.
func (s *Selection) wordPatterns(value, care []uint64) (fixed, cared [FilterGroups]uint16) {
	care = care[:len(value)]
	var vs, cs uint64
	for i, at := range s.at {
		vs |= value[at.word] >> at.shift & 1 << i
		cs |= care[at.word] >> at.shift & 1 << i
	}
	for g := range fixed {
		fixed[g] = uint16(vs >> (g * FilterBits) & (filterPatterns - 1))
		cared[g] = uint16(cs >> (g * FilterBits) & (filterPatterns - 1))
	}
	return fixed, cared
}

// filterCounts holds, per group and pattern, how many valid entries are
// compatible with that pattern on the group's positions (agree with it
// wherever they care), and beside the counts the bitmap of the non-zero
// ones, kept current as counts cross zero so a view freezes it by copy.
type filterCounts struct {
	n   [FilterGroups][filterPatterns]uint16
	set filterBitmap
}

// filterBitmap has bit p of group g set when some valid entry is
// compatible with pattern p.
type filterBitmap [FilterGroups][filterPatterns / 64]uint64

// tally moves entry word w's contributions to the per-position care
// counts and to the filter counts by delta: +1 as w arrives, -1 as it
// leaves, added mod 2^16 as tallyGroups adds. The care counts move by
// bit walks over w's care words.
func (t *TernaryArray) tally(w ternary.Word, delta int32) {
	d := uint16(delta)
	_, care := w.PlaneWords()
	for wi, c := range care {
		cares := t.cares[wi*64:]
		for ; c != 0; c &= c - 1 {
			cares[bits.TrailingZeros64(c)] += d
		}
	}
	t.tallyGroups(w, d)
}

// tallyGroups adds delta (mod 2^16, so 0xFFFF takes one away) to the
// filter count of every pattern w is compatible with, and sets each
// such pattern's bitmap bit to whether its count is non-zero, without a
// branch. An entry that is a wildcard at k of a group's positions is
// compatible with 2^k patterns: those that agree with its value where
// it cares, enumerated by a subset walk of the free positions.
func (t *TernaryArray) tallyGroups(w ternary.Word, delta uint16) {
	fixed, cared := t.sel.wordPatterns(w.PlaneWords())
	f := t.filter
	for g := range cared {
		counts, set := &f.n[g], &f.set[g]
		free := ^cared[g] & (filterPatterns - 1)
		for sub := free; ; sub = (sub - 1) & free {
			p := fixed[g] | sub
			counts[p] += delta
			set[p/64] = set[p/64]&^(1<<(p%64)) | b2u(counts[p] != 0)<<(p%64)
			if sub == 0 {
				break
			}
		}
	}
}

// SetSelection switches the array's filter to sel and recounts the
// filter counts from the valid entries; views frozen afterwards carry
// sel. Not a modeled hardware access: the filter is host-side.
func (t *TernaryArray) SetSelection(sel *Selection) {
	t.sel = sel
	if t.filter == nil {
		return
	}
	*t.filter = filterCounts{}
	t.valid.ForEach(func(r int) bool {
		t.tallyGroups(t.entries[r], 1)
		return true
	})
}

// filterSet returns the filter bitmap a view freezes: empty before the
// first write allocates the counts.
func (t *TernaryArray) filterSet() filterBitmap {
	if t.filter == nil {
		return filterBitmap{}
	}
	return t.filter.set
}

// AddSplitScores adds, for every position, min(valid entries caring 0,
// valid entries caring 1) to scores[pos]: how evenly the position
// splits the array's entries, and so how well it tells the array's
// patterns apart. It recounts both from the pair lines and the valid
// mask: the rows that rule out both patterns with key bit 0 at a
// position are those caring 1 there, and those that rule out both
// with key bit 1 are those caring 0. The device calls it only when it
// re-picks the filter's positions, a logarithmic number of times per
// load.
func (t *TernaryArray) AddSplitScores(scores []int) {
	pairs := t.pairs()
	valid := t.valid.Words()
	for p := 0; p < pairs; p++ {
		var lo1, lo0, hi1, hi0 int
		for b, vi := 0, 0; vi < len(valid); b, vi = b+1, vi+blockWords {
			l := (*[pairWords]uint64)(t.planes[(b*pairs+p)*pairWords:])
			for w, v := range valid[vi:min(vi+blockWords, len(valid))] {
				x0, x1, x2, x3 := l[w], l[blockWords+w], l[2*blockWords+w], l[3*blockWords+w]
				lo1 += bits.OnesCount64(x0 & x2 & v)
				lo0 += bits.OnesCount64(x1 & x3 & v)
				hi1 += bits.OnesCount64(x0 & x1 & v)
				hi0 += bits.OnesCount64(x2 & x3 & v)
			}
		}
		scores[2*p] += min(lo0, lo1)
		if 2*p+1 < t.Width() {
			scores[2*p+1] += min(hi0, hi1)
		}
	}
}

// Admits reports whether some valid entry of the view is compatible
// with the key patterns pats (Selection.Patterns of the view's
// selection) in every group. False means no entry can match the key,
// so its search would come back empty.
//
//catcam:hotpath
func (v *TernaryView) Admits(pats [FilterGroups]uint16) bool {
	return (v.filter[0][pats[0]>>6]>>(pats[0]&63))&
		(v.filter[1][pats[1]>>6]>>(pats[1]&63))&
		(v.filter[2][pats[2]>>6]>>(pats[2]&63))&
		(v.filter[3][pats[3]>>6]>>(pats[3]&63))&1 != 0
}

// Selection returns the positions the view's filter was frozen for.
func (v *TernaryView) Selection() *Selection { return v.sel }

// b2u is 1 for true and 0 for false; the compiler lowers it to a
// flag-setting instruction, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
