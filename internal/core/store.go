package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"catcam/internal/bitvec"
)

// PriorityStore is the per-subtable register file (a 256×16 RF in the
// prototype) holding the priority of every stored rule. During
// insertion the new rule's priority is broadcast against all stored
// priorities with O(n) parallel comparators (§III-C, §VI), producing
// the row and column vectors written into the priority matrix.
type PriorityStore struct {
	ranks []Rank
	valid *bitvec.Vector
}

// NewPriorityStore returns an empty store with the given slot capacity.
func NewPriorityStore(capacity int) *PriorityStore {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: invalid priority store capacity %d", capacity))
	}
	return &PriorityStore{ranks: make([]Rank, capacity), valid: bitvec.New(capacity)}
}

// Capacity returns the slot count.
func (s *PriorityStore) Capacity() int { return len(s.ranks) }

// Count returns the number of valid slots.
func (s *PriorityStore) Count() int { return s.valid.Count() }

// Set records rank at slot.
func (s *PriorityStore) Set(slot int, r Rank) {
	s.ranks[slot] = r
	s.valid.Set(slot)
}

// Clear invalidates slot.
func (s *PriorityStore) Clear(slot int) {
	s.valid.Clear(slot)
	s.ranks[slot] = Rank{}
}

// Rank returns the rank stored at slot.
func (s *PriorityStore) Rank(slot int) (Rank, bool) {
	if !s.valid.Get(slot) {
		return Rank{}, false
	}
	return s.ranks[slot], true
}

// Valid returns a copy of the valid mask.
func (s *PriorityStore) Valid() *bitvec.Vector { return s.valid.Copy() }

// ValidRef returns the live valid mask without copying. Callers must
// treat it as read-only; it backs the allocation-free decision paths.
func (s *PriorityStore) ValidRef() *bitvec.Vector { return s.valid }

// CompareAll broadcasts the ranks of the entries pending a
// priority-matrix write against every valid slot at once (§III-C, §VI:
// one comparator per slot, single-cycle in hardware). pend lists the
// pending entries by increasing rank, at least one, and pending (one
// word per 64 slots) sets their slots. For every row i it sets
// class[i] to how many pending ranks slot i beats: t for pend[t], 0
// for an empty row and for the rows that pad class past the capacity.
// It also writes the classes bit-sliced: with L = bits.Len(len(pend)),
// bit j of planes[wi*L+b] is bit b of the class of slot wi*64+j, for
// every valid slot that is not pending (other slots' bits are
// unspecified). Every verdict of the broadcast follows: slot i beats
// pend[t] exactly when t < class[i]. pend's capacity must reach 1<<L:
// CompareAll pads pend up to it with priority math.MaxInt, which no
// slot's priority exceeds. Allocates nothing.
//
// The host runs the comparators 64 slots at a time without a branch
// per slot. A slot's class is a binary search of the padded pending
// priorities in L steps, from the top bit down: the step for bit b
// probes at the slot's class so far plus 1<<b - 1 and sets bit b if
// the probe ranks below the slot. Each step is one pass over the word,
// whose decisions gather in a register into plane b. The first step
// probes the same rank for every slot, so for one pending rank the
// broadcast is one compare per slot. A slot whose priority ties a
// probed one goes on, after the word, to the rule ID and sequence: the
// probes include the slot's lowest pending rank not below it, so every
// tie is seen.
func (s *PriorityStore) CompareAll(pend []pendingSlot, pending []uint64, class []uint16, planes []uint64) {
	k := len(pend)
	L := bits.Len(uint(k))
	pend = pend[:1<<L]
	for t := k; t < len(pend); t++ {
		pend[t] = pendingSlot{rank: Rank{Priority: math.MaxInt}, slot: -1}
	}
	clear(class[len(s.ranks):])
	for wi, v := range s.valid.Words() {
		ranks := s.ranks[wi*64 : min(wi*64+64, len(s.ranks))]
		cls := class[wi*64 : wi*64+len(ranks)]
		pl := planes[wi*L : (wi+1)*L]
		lt, ties := firstStep(ranks, cls, pend[1<<(L-1)-1].rank.Priority, 1<<(L-1))
		pl[L-1] = lt
		for b := L - 2; b >= 0; b-- {
			lt, tied := searchStep(ranks, cls, pend, b)
			pl[b] = lt
			ties |= tied
		}
		live := v &^ pending[wi]
		for m := ties & live; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			c := classOf(pend[:k], ranks[j])
			cls[j] = uint16(c)
			for b := range pl {
				pl[b] = pl[b]&^(1<<j) | uint64(c>>b&1)<<j
			}
		}
		for m := ^live; m != 0; m &= m - 1 {
			if j := bits.TrailingZeros64(m); j < len(cls) {
				cls[j] = 0
			}
		}
	}
	for t, p := range pend[:k] {
		class[p.slot] = uint16(t)
	}
}

// searchStep runs the step of CompareAll's search that decides bit b
// of every class, for the slots of a word: slot j probes pend at its
// class so far, cls[j], plus 1<<b - 1, and sets bit b of its class if
// the probe ranks below it on priority. It returns the slots whose
// probe ranked below them and those whose probe tied their priority.
// It is a function of its own so that the compiler keeps the words in
// registers across the slots.
func searchStep(ranks []Rank, cls []uint16, pend []pendingSlot, b int) (lt, ties uint64) {
	cls = cls[:len(ranks)]
	for j := len(ranks) - 1; j >= 0; j-- {
		c, p := int(cls[j]), ranks[j].Priority
		q := pend[c+1<<b-1].rank.Priority
		d := b2i(q < p)
		lt = lt<<1 | uint64(d)
		ties = ties<<1 | uint64(b2i(q == p))
		cls[j] = uint16(c | d<<b)
	}
	return lt, ties
}

// firstStep is searchStep's first step, which decides the top bit, of
// value half, of every class: its probe q is the same for every slot,
// as every class so far is 0, and it sets each cls[j] to half or 0.
// Peeled off searchStep, it is one compare per slot, as a single
// insert's broadcast was.
func firstStep(ranks []Rank, cls []uint16, q int, half uint16) (lt, ties uint64) {
	cls = cls[:len(ranks)]
	for j := len(ranks) - 1; j >= 0; j-- {
		p := ranks[j].Priority
		d := b2i(q < p)
		lt = lt<<1 | uint64(d)
		ties = ties<<1 | uint64(b2i(q == p))
		cls[j] = half & -uint16(d)
	}
	return lt, ties
}

// classOf returns how many of pend's ranks, in increasing order, r
// beats.
func classOf(pend []pendingSlot, r Rank) int {
	return sort.Search(len(pend), func(t int) bool { return !pend[t].rank.Less(r) })
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a
// flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MaxSlot returns the slot holding the highest rank, or -1 when empty.
// This is metadata bookkeeping (the hardware derives it with the
// all-true priority decision; Subtable.RecomputeMax does that), kept
// here for verification.
func (s *PriorityStore) MaxSlot() int {
	best := -1
	s.valid.ForEach(func(i int) bool {
		if best == -1 || s.ranks[best].Less(s.ranks[i]) {
			best = i
		}
		return true
	})
	return best
}
