// Package ternary implements fixed-width ternary words: bit strings over
// {0, 1, *} where * ("don't care") matches both 0 and 1.
//
// Ternary words are the storage format of TCAM entries and of CATCAM's
// match matrix. A word of width w is represented by two w-bit masks:
// value (the cared-for bits) and care (1 = bit is specified, 0 = *).
// The canonical form keeps value ⊆ care so equality is bitwise.
//
// The paper's match-matrix circuit encodes ternary 0/1/* as bit pairs
// 10/01/00 in two transposed 8T cells (Fig 13); functionally that is
// exactly the (value, care) pair per bit, which is what Match evaluates.
package ternary

import (
	"fmt"
	"math/rand"
	"strings"
)

const wordBits = 64

// Word is a ternary word of fixed width. The zero value is unusable;
// construct words with NewWord, Parse or FromBits.
type Word struct {
	width int
	value []uint64 // cared bit values; bits outside care are zero
	care  []uint64 // 1 = specified bit, 0 = wildcard
}

// Key is a fully-specified binary search key of fixed width, the input
// broadcast on the search lines during a lookup.
type Key struct {
	width int
	bits  []uint64
}

func words(width int) int { return (width + wordBits - 1) / wordBits }

func tailMask(width int) uint64 {
	if r := width % wordBits; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// NewWord returns an all-wildcard ternary word of the given width. Its
// value and care planes share one allocation.
func NewWord(width int) Word {
	if width <= 0 {
		panic(fmt.Sprintf("ternary: non-positive width %d", width))
	}
	n := words(width)
	planes := make([]uint64, 2*n)
	return Word{width: width, value: planes[:n:n], care: planes[n:]}
}

// NewKey returns an all-zero key of the given width.
func NewKey(width int) Key {
	if width <= 0 {
		panic(fmt.Sprintf("ternary: non-positive width %d", width))
	}
	return Key{width: width, bits: make([]uint64, words(width))}
}

// Width returns the number of ternary positions in the word.
func (w Word) Width() int { return w.width }

// Width returns the number of bits in the key.
func (k Key) Width() int { return k.width }

// PlaneWords exposes the word's two backing bit planes, indexed by
// storage position (bit 0 of value[0]/care[0] is the word's least
// significant, i.e. right-most, ternary position). Callers must not
// mutate the slices; the bit-sliced match kernel reads them to
// maintain its transposed planes.
func (w Word) PlaneWords() (value, care []uint64) { return w.value, w.care }

// Words exposes the key's backing words in the same storage order as
// PlaneWords. Callers must not mutate the slice.
func (k Key) Words() []uint64 { return k.bits }

// Bit describes one ternary position.
type Bit uint8

// Ternary bit states.
const (
	Zero Bit = iota // matches key bit 0
	One             // matches key bit 1
	Star            // matches both
)

func (b Bit) String() string {
	switch b {
	case Zero:
		return "0"
	case One:
		return "1"
	case Star:
		return "*"
	}
	return "?"
}

func (w Word) check(i int) {
	if i < 0 || i >= w.width {
		panic(fmt.Sprintf("ternary: bit %d out of range [0,%d)", i, w.width))
	}
}

// SetBit sets position i (0 = most significant, matching the left-to-right
// string form used throughout the paper's figures).
//
//catcam:mutator
func (w *Word) SetBit(i int, b Bit) {
	w.check(i)
	pos := w.width - 1 - i
	wi, off := pos/wordBits, uint(pos%wordBits)
	switch b {
	case Zero:
		w.care[wi] |= 1 << off
		w.value[wi] &^= 1 << off
	case One:
		w.care[wi] |= 1 << off
		w.value[wi] |= 1 << off
	case Star:
		w.care[wi] &^= 1 << off
		w.value[wi] &^= 1 << off
	default:
		panic(fmt.Sprintf("ternary: invalid bit %d", b))
	}
}

// BitAt returns the ternary state of position i (0 = most significant).
func (w Word) BitAt(i int) Bit {
	w.check(i)
	pos := w.width - 1 - i
	wi, off := pos/wordBits, uint(pos%wordBits)
	if w.care[wi]&(1<<off) == 0 {
		return Star
	}
	if w.value[wi]&(1<<off) != 0 {
		return One
	}
	return Zero
}

// SetKeyBit sets key bit i (0 = most significant) to b.
//
//catcam:mutator
func (k *Key) SetKeyBit(i int, b bool) {
	if i < 0 || i >= k.width {
		panic(fmt.Sprintf("ternary: key bit %d out of range [0,%d)", i, k.width))
	}
	pos := k.width - 1 - i
	wi, off := pos/wordBits, uint(pos%wordBits)
	if b {
		k.bits[wi] |= 1 << off
	} else {
		k.bits[wi] &^= 1 << off
	}
}

// KeyBit returns key bit i (0 = most significant).
func (k Key) KeyBit(i int) bool {
	if i < 0 || i >= k.width {
		panic(fmt.Sprintf("ternary: key bit %d out of range [0,%d)", i, k.width))
	}
	pos := k.width - 1 - i
	return k.bits[pos/wordBits]&(1<<uint(pos%wordBits)) != 0
}

// Parse builds a word from a string of '0', '1' and '*' characters,
// most-significant first, e.g. "10*1" as in Fig 2 of the paper.
func Parse(s string) (Word, error) {
	if len(s) == 0 {
		return Word{}, fmt.Errorf("ternary: empty word")
	}
	w := NewWord(len(s))
	for i, c := range s {
		switch c {
		case '0':
			w.SetBit(i, Zero)
		case '1':
			w.SetBit(i, One)
		case '*':
			w.SetBit(i, Star)
		default:
			return Word{}, fmt.Errorf("ternary: invalid character %q at position %d", c, i)
		}
	}
	return w, nil
}

// MustParse is Parse that panics on error, for tests and fixtures.
func MustParse(s string) Word {
	w, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return w
}

// ParseKey builds a key from a string of '0' and '1' characters.
func ParseKey(s string) (Key, error) {
	if len(s) == 0 {
		return Key{}, fmt.Errorf("ternary: empty key")
	}
	k := NewKey(len(s))
	for i, c := range s {
		switch c {
		case '0':
			k.SetKeyBit(i, false)
		case '1':
			k.SetKeyBit(i, true)
		default:
			return Key{}, fmt.Errorf("ternary: invalid key character %q at position %d", c, i)
		}
	}
	return k, nil
}

// MustParseKey is ParseKey that panics on error.
func MustParseKey(s string) Key {
	k, err := ParseKey(s)
	if err != nil {
		panic(err)
	}
	return k
}

// String renders the word most-significant first with '*' wildcards.
func (w Word) String() string {
	var b strings.Builder
	b.Grow(w.width)
	for i := 0; i < w.width; i++ {
		b.WriteString(w.BitAt(i).String())
	}
	return b.String()
}

// String renders the key most-significant first.
func (k Key) String() string {
	var b strings.Builder
	b.Grow(k.width)
	for i := 0; i < k.width; i++ {
		if k.KeyBit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Match reports whether key k matches word w: every cared-for bit of w
// equals the corresponding key bit. This is the wire-AND of per-bit XNORs
// the match line evaluates.
func (w Word) Match(k Key) bool {
	if w.width != k.width {
		panic(fmt.Sprintf("ternary: match width mismatch %d vs %d", w.width, k.width))
	}
	for i := range w.value {
		if (w.value[i]^k.bits[i])&w.care[i] != 0 {
			return false
		}
	}
	return true
}

// Overlaps reports whether some key matches both w and o: at every
// position where both words care, their values agree.
func (w Word) Overlaps(o Word) bool {
	if w.width != o.width {
		panic(fmt.Sprintf("ternary: overlap width mismatch %d vs %d", w.width, o.width))
	}
	for i := range w.value {
		if (w.value[i]^o.value[i])&w.care[i]&o.care[i] != 0 {
			return false
		}
	}
	return true
}

// Subsumes reports whether every key matching o also matches w (w is a
// generalization of o): w's cared bits are a subset of o's and agree.
func (w Word) Subsumes(o Word) bool {
	if w.width != o.width {
		panic(fmt.Sprintf("ternary: subsume width mismatch %d vs %d", w.width, o.width))
	}
	for i := range w.value {
		if w.care[i]&^o.care[i] != 0 { // w cares where o doesn't
			return false
		}
		if (w.value[i]^o.value[i])&w.care[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether w and o have identical width and ternary states.
func (w Word) Equal(o Word) bool {
	if w.width != o.width {
		return false
	}
	for i := range w.value {
		if w.value[i] != o.value[i] || w.care[i] != o.care[i] {
			return false
		}
	}
	return true
}

// WildcardCount returns the number of * positions.
func (w Word) WildcardCount() int {
	n := 0
	for i := 0; i < w.width; i++ {
		if w.BitAt(i) == Star {
			n++
		}
	}
	return n
}

// Copy returns an independent copy of the word.
func (w Word) Copy() Word {
	c := NewWord(w.width)
	copy(c.value, w.value)
	copy(c.care, w.care)
	return c
}

// Slot writes word o into positions [off, off+o.width) of w (0 = most
// significant), used to concatenate per-field encodings into one search
// word; positions outside the range are untouched. It panics if o does
// not fit. The copy is word-wise: o's storage bits land shifted up by
// the positions below the range.
//
//catcam:mutator
func (w *Word) Slot(off int, o Word) {
	if off < 0 || off+o.width > w.width {
		panic(fmt.Sprintf("ternary: slot [%d,%d) outside width %d", off, off+o.width, w.width))
	}
	shift := uint(w.width - off - o.width)
	insertBits(w.value, o.value, o.width, shift)
	insertBits(w.care, o.care, o.width, shift)
}

// insertBits overwrites bits [shift, shift+n) of dst with bits [0, n)
// of src, leaving every other bit of dst as it was.
func insertBits(dst, src []uint64, n int, shift uint) {
	ws, bs := int(shift/wordBits), shift%wordBits
	last := words(n) - 1
	for i := 0; i <= last; i++ {
		mask := ^uint64(0)
		if i == last {
			mask = tailMask(n)
		}
		s := src[i] & mask
		dst[ws+i] = dst[ws+i]&^(mask<<bs) | s<<bs
		if hi := mask >> (wordBits - bs); hi != 0 { // zero when bs is 0

			dst[ws+i+1] = dst[ws+i+1]&^hi | s>>(wordBits-bs)
		}
	}
}

// SlotKey writes key o into positions [off, off+o.width) of k.
//
//catcam:mutator
func (k *Key) SlotKey(off int, o Key) {
	if off < 0 || off+o.width > k.width {
		panic(fmt.Sprintf("ternary: slot [%d,%d) outside width %d", off, off+o.width, k.width))
	}
	for i := 0; i < o.width; i++ {
		k.SetKeyBit(off+i, o.KeyBit(i))
	}
}

// LoadPadded overwrites k with o placed at position 0 (most
// significant) and the remaining low positions zeroed — the same
// result as zeroing k and calling SlotKey(0, o), but word-wise and
// without allocating, so a device can keep one padded search-key
// buffer across lookups. It panics if o is wider than k.
//
//catcam:mutator
func (k *Key) LoadPadded(o Key) {
	if o.width > k.width {
		panic(fmt.Sprintf("ternary: pad source width %d exceeds %d", o.width, k.width))
	}
	shift := uint(k.width - o.width)
	wordShift, bitShift := int(shift/wordBits), shift%wordBits
	for i := range k.bits {
		k.bits[i] = 0
	}
	for i, w := range o.bits {
		if w == 0 {
			continue
		}
		k.bits[i+wordShift] |= w << bitShift
		if bitShift != 0 && i+wordShift+1 < len(k.bits) {
			k.bits[i+wordShift+1] |= w >> (wordBits - bitShift)
		}
	}
	k.bits[len(k.bits)-1] &= tailMask(k.width)
}

// LoadTop overwrites k with an n-bit number, 64 < n ≤ 128, at position
// 0 (most significant) and the remaining positions zeroed: hi holds its
// top n-64 bits and lo its low 64. It is LoadPadded of that number's
// key without building the key, word-wise and allocation-free; the
// header encoder writes a search key with it. It panics if n is out of
// range or wider than k.
//
//catcam:mutator
func (k *Key) LoadTop(hi, lo uint64, n int) {
	if n <= wordBits || n > 2*wordBits || n > k.width {
		panic(fmt.Sprintf("ternary: load-top of %d bits into width %d", n, k.width))
	}
	hi &= ^uint64(0) >> uint(2*wordBits-n)
	bits := k.bits
	clear(bits)
	// The number's bit 0 lands at storage position width-n: bit bs of
	// word wi. Its 128 bits span words wi..wi+2, the last only when
	// shifted.
	pos := uint(k.width - n)
	wi, bs := pos/wordBits, pos%wordBits
	bits[wi] = lo << bs
	if bs == 0 {
		bits[wi+1] = hi
		return
	}
	bits[wi+1] = hi<<bs | lo>>(wordBits-bs)
	if top := hi >> (wordBits - bs); top != 0 {
		bits[wi+2] = top
	}
}

// SetPrefix writes into positions [off, off+width) of w, most
// significant first, the top plen bits of v's low width bits, followed
// by wildcards: Slot of Prefix(v, plen, width) without the intermediate
// word, set word-wise. The rule encoder writes every field of a stored
// word with it.
//
//catcam:mutator
func (w *Word) SetPrefix(off, width int, v uint64, plen int) {
	if off < 0 || width <= 0 || width > 64 || off+width > w.width {
		panic(fmt.Sprintf("ternary: set-prefix [%d,%d) outside width %d", off, off+width, w.width))
	}
	if plen < 0 || plen > width {
		panic(fmt.Sprintf("ternary: prefix length %d outside [0,%d]", plen, width))
	}
	mask := ^uint64(0) >> uint(64-width)
	care := mask &^ (mask >> uint(plen))
	v &= care
	// Storage position of the field's least significant bit.
	lo := w.width - off - width
	wi, sh := lo/wordBits, uint(lo%wordBits)
	w.value[wi] = w.value[wi]&^(mask<<sh) | v<<sh
	w.care[wi] = w.care[wi]&^(mask<<sh) | care<<sh
	if spill := uint(width) + sh; spill > wordBits {
		drop := uint(wordBits) - sh
		w.value[wi+1] = w.value[wi+1]&^(mask>>drop) | v>>drop
		w.care[wi+1] = w.care[wi+1]&^(mask>>drop) | care>>drop
	}
}

// Extract returns the sub-word at positions [off, off+width).
func (w Word) Extract(off, width int) Word {
	if off < 0 || width <= 0 || off+width > w.width {
		panic(fmt.Sprintf("ternary: extract [%d,%d) outside width %d", off, off+width, w.width))
	}
	out := NewWord(width)
	for i := 0; i < width; i++ {
		out.SetBit(i, w.BitAt(off+i))
	}
	return out
}

// ExtractKey returns the sub-key at positions [off, off+width).
func (k Key) ExtractKey(off, width int) Key {
	if off < 0 || width <= 0 || off+width > k.width {
		panic(fmt.Sprintf("ternary: extract [%d,%d) outside width %d", off, off+width, k.width))
	}
	out := NewKey(width)
	for i := 0; i < width; i++ {
		out.SetKeyBit(i, k.KeyBit(off+i))
	}
	return out
}

// FromUint returns a fully-specified width-bit word holding v's low bits.
func FromUint(v uint64, width int) Word {
	w := NewWord(width)
	for i := 0; i < width; i++ {
		if v&(1<<uint(width-1-i)) != 0 {
			w.SetBit(i, One)
		} else {
			w.SetBit(i, Zero)
		}
	}
	return w
}

// KeyFromUint returns a width-bit key holding v's low bits.
func KeyFromUint(v uint64, width int) Key {
	k := NewKey(width)
	for i := 0; i < width; i++ {
		k.SetKeyBit(i, v&(1<<uint(width-1-i)) != 0)
	}
	return k
}

// Prefix returns a width-bit word whose top plen bits equal the top plen
// bits of v and whose remaining bits are wildcards — the encoding of an
// IP prefix in a TCAM.
func Prefix(v uint64, plen, width int) Word {
	if plen < 0 || plen > width {
		panic(fmt.Sprintf("ternary: prefix length %d outside [0,%d]", plen, width))
	}
	w := NewWord(width)
	for i := 0; i < plen; i++ {
		if v&(1<<uint(width-1-i)) != 0 {
			w.SetBit(i, One)
		} else {
			w.SetBit(i, Zero)
		}
	}
	return w
}

// Random returns a random word where each position is * with probability
// pStar and otherwise a uniform 0/1.
func Random(rng *rand.Rand, width int, pStar float64) Word {
	w := NewWord(width)
	for i := 0; i < width; i++ {
		switch {
		case rng.Float64() < pStar:
			w.SetBit(i, Star)
		case rng.Intn(2) == 0:
			w.SetBit(i, Zero)
		default:
			w.SetBit(i, One)
		}
	}
	return w
}

// RandomKey returns a uniformly random key.
func RandomKey(rng *rand.Rand, width int) Key {
	k := NewKey(width)
	for i := range k.bits {
		k.bits[i] = rng.Uint64()
	}
	k.bits[len(k.bits)-1] &= tailMask(width)
	return k
}

// MatchingKey returns the deterministic key that matches w with every
// wildcard position set to zero — the canonical probe the audit sweep
// uses to re-drive one stored entry through both search kernels.
func (w Word) MatchingKey() Key {
	k := NewKey(w.width)
	for i := 0; i < w.width; i++ {
		k.SetKeyBit(i, w.BitAt(i) == One)
	}
	return k
}

// RandomMatchingKey returns a key that matches w, with wildcard positions
// filled uniformly at random. Useful for generating packet traces that
// hit a given rule.
func RandomMatchingKey(rng *rand.Rand, w Word) Key {
	k := NewKey(w.width)
	for i := 0; i < w.width; i++ {
		switch w.BitAt(i) {
		case One:
			k.SetKeyBit(i, true)
		case Zero:
			k.SetKeyBit(i, false)
		default:
			k.SetKeyBit(i, rng.Intn(2) == 1)
		}
	}
	return k
}
