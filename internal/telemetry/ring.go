package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Sampler is a deterministic 1-in-N sampling gate. N == 0 disables
// sampling entirely; N == 1 samples every event. Hit is one atomic
// load (plus one atomic add when enabled) and never allocates, which
// is what keeps un-sampled hot paths allocation-free.
type Sampler struct {
	every atomic.Uint64
	n     atomic.Uint64
}

// SetEvery sets the sampling period (0 disables).
func (s *Sampler) SetEvery(n uint64) { s.every.Store(n) }

// Every returns the sampling period.
func (s *Sampler) Every() uint64 { return s.every.Load() }

// Hit reports whether this event is sampled.
func (s *Sampler) Hit() bool {
	e := s.every.Load()
	if e == 0 {
		return false
	}
	return s.n.Add(1)%e == 0
}

// Ring is the bounded overwrite ring behind every retained-record view
// in the tree: the span tracer (internal/trace) and the auditor's
// recent violations (internal/flightrec). Publishers claim a slot
// with one atomic add and publish with one atomic pointer store;
// readers walk it without blocking publishers (and vice versa) — no
// locks anywhere. When the ring is full the oldest records are
// overwritten; Total() minus Cap() tells a reader how many it can no
// longer see.
//
// Each record carries its own publication sequence number (1-based),
// which the ring stamps through the accessor given to NewRing: that is
// what lets a reader tell a published record from a stale or
// in-flight slot without wrapping records in a second allocation.
type Ring[T any] struct {
	slots []atomic.Pointer[T] //catcam:allow epoch "observability ring; slots are replaced, never republished as classify state"
	seq   atomic.Uint64       // records ever published
	seqOf func(*T) *uint64
}

// NewRing builds a ring retaining up to capacity records. seqOf returns
// the address of a record's sequence field.
func NewRing[T any](capacity int, seqOf func(*T) *uint64) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("telemetry: invalid ring capacity %d", capacity))
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], capacity), seqOf: seqOf}
}

// Publish stamps p with the next sequence number and stores it,
// overwriting the oldest record when full. p must not be written after
// the call: readers may hold it.
func (r *Ring[T]) Publish(p *T) {
	s := r.seq.Add(1)
	*r.seqOf(p) = s
	r.slots[(s-1)%uint64(len(r.slots))].Store(p)
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Total returns the number of records ever published (including
// overwritten ones).
func (r *Ring[T]) Total() uint64 { return r.seq.Load() }

// Each calls f on every retained record, oldest first. With no
// publisher running those are exactly the last Cap records, a gap-free
// suffix of the publication order. A publisher running mid-read can
// only take records away from it — a slot counts only while it holds
// exactly the sequence number that maps to it inside the window, so a
// slot claimed but not yet stored, or lapped since, drops out — and can
// never reorder or duplicate them.
func (r *Ring[T]) Each(f func(*T)) {
	hi := r.seq.Load()
	c := uint64(len(r.slots))
	lo := uint64(1)
	if hi > c {
		lo = hi - c + 1
	}
	for s := lo; s <= hi; s++ {
		if p := r.slots[(s-1)%c].Load(); p != nil && *r.seqOf(p) == s {
			f(p)
		}
	}
}

// EventRing is what is left of the retired structured-event ring: it
// holds nothing. The update trace (internal/trace) is the one record of
// an update's steps.
//
// Deprecated: kept only because benchmark/ still builds one and passes
// it to the AttachTelemetry methods and flightrec.NewAuditor, which
// ignore it; deleted with the benchmark-side edits of ROADMAP item 5.
type EventRing struct{}

// NewEventRing returns an empty EventRing; capacity is ignored.
//
// Deprecated: see EventRing.
func NewEventRing(capacity int) *EventRing { return &EventRing{} }
