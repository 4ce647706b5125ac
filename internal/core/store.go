package core

import (
	"fmt"
	"math/bits"

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

// CompareAll broadcasts the new rank against every valid slot and
// fills the two vectors (Capacity bits each, overwritten) to write into
// the priority matrix for the new rule's slot: row[j] = new beats slot
// j, col[i] = slot i beats new. One comparator fires per valid slot
// (single-cycle in hardware). Allocates nothing.
//
// The host builds each 64 slots' row word in registers, without a
// branch per slot: a priority compare shifts one bit per slot into the
// word, and another marks the slots whose priority ties the new one's
// (a rule's own rows, and rules sharing a priority), which alone go on
// to the rule ID and sequence. The column word is the valid slots the
// new rank does not beat: ranks are distinct, so each of them beats it.
func (s *PriorityStore) CompareAll(r Rank, row, col *bitvec.Vector) {
	for wi, valid := range s.valid.Words() {
		ranks := s.ranks[wi*64:]
		ranks = ranks[:min(len(ranks), 64)]
		var beats, ties uint64
		for j := len(ranks) - 1; j >= 0; j-- {
			p := ranks[j].Priority
			beats = beats<<1 | b2u(p < r.Priority)
			ties = ties<<1 | b2u(p == r.Priority)
		}
		for m := ties & valid; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			beats |= r.beatsBit(ranks[j]) << j
		}
		beats &= valid
		row.SetWord(wi, beats)
		col.SetWord(wi, valid&^beats)
	}
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
