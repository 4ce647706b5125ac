// Package bitvec provides dense, fixed-length bit vectors.
//
// Bit vectors are the lingua franca of CATCAM: the match matrix emits a
// match vector (one bit per stored rule), the priority matrix reduces it
// to a one-hot report vector, and the global priority matrix does the
// same across subtables. The operations here mirror what the in-memory
// hardware performs on bit-lines: bulk AND/OR/AND-NOT, popcount and
// one-hot detection.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is unusable; create
// vectors with New. Bits beyond Len are always zero (canonical form), an
// invariant every mutating method preserves.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns an n-bit vector with the given bit positions set.
func FromIndices(n int, idx ...int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words for read-only scanning. The final word
// is masked to the vector length. Callers must not mutate the slice.
func (v *Vector) Words() []uint64 { return v.words }

// LoadWords overwrites v's bits from a raw word slice of exactly the
// backing length, re-establishing the canonical form (tail bits beyond
// Len are cleared). This is the hand-off point from the bit-sliced
// match kernel, which accumulates into a scratch []uint64 and deposits
// the result into a caller-owned vector without allocating.
//
//catcam:mutator
func (v *Vector) LoadWords(ws []uint64) *Vector {
	if len(ws) != len(v.words) {
		panic(fmt.Sprintf("bitvec: word count %d != %d", len(ws), len(v.words)))
	}
	copy(v.words, ws)
	v.trim()
	return v
}

func (v *Vector) check(i int) {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
}

// indexError is check's panic value, an out-of-range index i of an
// n-bit vector. It formats only when printed, which keeps check, and
// with it Set, Clear and Get, within the compiler's inlining budget: a
// formatting call in check alone exceeds it.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitvec: index %d out of range [0,%d)", e.i, e.n)
}

// Set sets bit i to 1.
//
//catcam:mutator
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (i % wordBits)
}

// Clear sets bit i to 0.
//
//catcam:mutator
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (i % wordBits)
}

// SetBool sets bit i to b.
//
//catcam:mutator
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// SetAll sets every bit (hardware: drive all word-lines). Used by the
// max-priority trace trick, which runs a priority decision with an
// all-true match vector.
//
//catcam:mutator
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// Reset clears every bit.
//
//catcam:mutator
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim re-establishes the canonical form (tail bits zero).
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
	if v.n == 0 {
		for i := range v.words {
			v.words[i] = 0
		}
	}
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And sets v = v AND o and returns v.
//
//catcam:mutator
func (v *Vector) And(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
	return v
}

// AndNot sets v = v AND NOT o and returns v. This is the core of the
// priority decision: masking out every rule dominated by a matched row.
//
//catcam:mutator
func (v *Vector) AndNot(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
	return v
}

// AndNotWords sets v = v AND NOT ws, where ws is a raw word slice of
// exactly the backing length. This is AndNot against a row stored as
// bare words — the form immutable snapshot matrices keep their rows in
// — without wrapping each row in a Vector.
//
//catcam:mutator
func (v *Vector) AndNotWords(ws []uint64) *Vector {
	if len(ws) != len(v.words) {
		panic(fmt.Sprintf("bitvec: word count %d != %d", len(ws), len(v.words)))
	}
	for i := range v.words {
		v.words[i] &^= ws[i]
	}
	return v
}

// AndNotWord clears in word i of v (bits 64i to 64i+63) the bits set in
// w: AndNotWords one word at a time, for a row stored as scattered
// words rather than one slice. Clearing bits keeps the canonical form.
//
//catcam:mutator
func (v *Vector) AndNotWord(i int, w uint64) {
	v.words[i] &^= w
}

// SetWord overwrites word i of v (bits 64i to 64i+63) with w, dropping
// the bits of w past Len: the store of a producer that computes 64 bits
// at once.
//
//catcam:mutator
func (v *Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	if i == len(v.words)-1 {
		v.trim()
	}
}

// Or sets v = v OR o and returns v.
//
//catcam:mutator
func (v *Vector) Or(o *Vector) *Vector {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
	return v
}

// Copy returns an independent copy of v.
func (v *Vector) Copy() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o (same length) and returns v.
//
//catcam:mutator
func (v *Vector) CopyFrom(o *Vector) *Vector {
	v.sameLen(o)
	copy(v.words, o.words)
	return v
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsOneHot reports whether exactly one bit is set. The report vector of a
// priority decision must be one-hot whenever the match vector is non-zero.
func (v *Vector) IsOneHot() bool {
	seen := false
	for _, w := range v.words {
		switch {
		case w == 0:
		case w&(w-1) == 0 && !seen:
			seen = true
		default:
			return false
		}
	}
	return seen
}

// First returns the index of the lowest set bit, or -1 if none.
func (v *Vector) First() int {
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the lowest set bit at or above i, or -1
// if none; a walk over the set bits in order is First, then NextSet
// from one past each.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for wi := i / wordBits; wi < len(v.words); wi++ {
		w := v.words[wi]
		if wi == i/wordBits {
			w &= ^uint64(0) << (i % wordBits)
		}
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstZero returns the index of the lowest clear bit, or -1 when all
// Len bits are set. It scans word-wise — one complement and one
// trailing-zero count per 64 bits — which is what makes free-slot scans
// over near-full arrays cheap.
func (v *Vector) FirstZero() int {
	for i, w := range v.words {
		if w != ^uint64(0) {
			idx := i*wordBits + bits.TrailingZeros64(^w)
			if idx < v.n {
				return idx
			}
			return -1
		}
	}
	return -1
}

// Last returns the index of the highest set bit, or -1 if none. A
// conventional TCAM priority encoder reports the highest physical
// address; with entries stored top-down in decreasing priority this is
// the entry at the largest index among matches when addresses grow
// downward — engines pick the convention they need.
func (v *Vector) Last() int {
	for i := len(v.words) - 1; i >= 0; i-- {
		if w := v.words[i]; w != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// ForEach calls fn with the index of every set bit in ascending order.
// Iteration stops early if fn returns false.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the indices of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the vector LSB-first as '0'/'1' characters, matching the
// row order of the figures in the paper.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
