package sram

import (
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/classbench"
	"catcam/internal/ternary"
)

// The update-side rungs: one kernel each, on Table I's 256-row arrays.
// They time the host; the modelled cycles and energy of each call are
// fixed by its cost class and checked by the tests, not here.

// aclWords returns the first n encoded rows of the ACL-1K table at
// seed 5, each widened to width positions as a device widens them.
func aclWords(n, width int) []ternary.Word {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 1000, Seed: 5})
	var words []ternary.Word
	for _, r := range rs.Rules {
		for _, w := range r.EncodeWidth(width) {
			words = append(words, w)
			if len(words) == n {
				return words
			}
		}
	}
	return words
}

// BenchmarkWriteColumn is one dual-voltage column write into a
// 256×256 priority matrix, with every third row's bit set.
func BenchmarkWriteColumn(b *testing.B) {
	a := NewArray(PriorityMatrixParams())
	col := bitvec.New(a.Params().Rows)
	for i := 0; i < col.Len(); i += 3 {
		col.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.WriteColumn(i%256, col)
	}
}

// BenchmarkWriteEntryFreeSlot is one match-matrix entry write into a
// free row of a 256×160 array whose other half is loaded, with the
// filter on the positions the loaded half scores best, as a device
// picks them. Each pass over the free half is followed, off the clock,
// by invalidating it again.
func BenchmarkWriteEntryFreeSlot(b *testing.B) {
	p := MatchMatrixParams()
	words := aclWords(p.Rows, p.Cols)
	t := NewTernaryArray(p, p.Cols)
	half := p.Rows / 2
	for r := 0; r < half; r++ {
		t.WriteEntry(r, words[r])
	}
	scores := make([]int, p.Cols)
	t.AddSplitScores(scores)
	t.SetSelection(SelectPositions(p.Cols, scores))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % half
		if k == 0 && i > 0 {
			b.StopTimer()
			for r := half; r < p.Rows; r++ {
				t.Invalidate(r)
			}
			b.StartTimer()
		}
		t.WriteEntry(half+k, words[half+k])
	}
}

// BenchmarkFreezeAfterWrite is what an insert costs the match array
// on the update path: one entry write into a full 256×160 array of
// ACL-1K rows, in place of a row's word, and the freeze that shares
// with the view before it, which copies the listed pairs' lines. The
// valid count holds, so no write re-derives the pair order.
func BenchmarkFreezeAfterWrite(b *testing.B) {
	p := MatchMatrixParams()
	words := aclWords(p.Rows, p.Cols)
	t := NewTernaryArray(p, p.Cols)
	for r, w := range words {
		t.WriteEntry(r, w)
	}
	v := t.SnapshotViewSharing(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := i % len(words)
		t.WriteEntry(r, words[(r+1+i/len(words))%len(words)])
		v = t.SnapshotViewSharing(v)
	}
}

// BenchmarkColumnNORAllValid is RecomputeMax's priority decision: the
// all-true NOR over a full 256×256 matrix, every row active.
func BenchmarkColumnNORAllValid(b *testing.B) {
	a := NewArray(PriorityMatrixParams())
	n := a.Params().Rows
	for r := 0; r < n; r++ {
		// Row r beats the rows after it, as a priority matrix over
		// slots stored in rank order would read.
		row := bitvec.New(n)
		for c := r + 1; c < n; c++ {
			row.Set(c)
		}
		a.WriteRow(r, row)
	}
	active := bitvec.New(n)
	active.SetAll()
	dst := bitvec.New(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.ColumnNORInto(dst, active)
	}
}

// patternSink keeps BenchmarkSelectionPatterns' gathers live.
var patternSink uint16

// BenchmarkSelectionPatterns is the filter's gather for one entry write
// or leave (tallyGroups): an ACL-1K row's fixed and cared patterns, on
// the positions a 256×160 array loaded with 256 such rows scores best.
func BenchmarkSelectionPatterns(b *testing.B) {
	p := MatchMatrixParams()
	words := aclWords(p.Rows, p.Cols)
	t := NewTernaryArray(p, p.Cols)
	for r, w := range words {
		t.WriteEntry(r, w)
	}
	scores := make([]int, p.Cols)
	t.AddSplitScores(scores)
	sel := SelectPositions(p.Cols, scores)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fixed, cared := sel.wordPatterns(words[i%len(words)].PlaneWords())
		patternSink ^= fixed[i%FilterGroups] ^ cared[i%FilterGroups]
	}
}
