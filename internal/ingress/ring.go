package ingress

import (
	"fmt"
	"sync/atomic"

	"catcam/internal/rules"
)

// Ring is a bounded single-producer single-consumer queue of packet
// headers — the software stand-in for a NIC RX descriptor ring. One
// goroutine (the traffic source) pushes, one goroutine (the worker that
// owns the ring) pops; under that contract every operation is
// wait-free and allocation-free.
//
// Backpressure is by rejection, as in hardware: TryPush on a full ring
// returns false and the caller accounts a drop. Nothing ever blocks, so
// a stalled worker can slow only its own ring, never the source or the
// other workers.
//
// The cursors are free-running uint64s (slot = cursor & mask), so
// full/empty are distinguishable without a spare slot: occupancy is
// tail-head. Each side also keeps a plain copy of the other side's
// cursor on its own line, so a cursor line crosses cores once per
// reload, not once per operation:
//
//   - the producer's headCache is a lower bound on head (head only
//     grows), so the free space it implies is never more than the true
//     free space. TryPush reloads it only when it says the ring is
//     full; PushBatch only when it shows less room than the batch
//     needs.
//   - the consumer's tailCache is a lower bound on tail, so the
//     occupancy it implies is never more than the truth. PopBatch
//     reloads it whenever it holds fewer than max headers, so a burst
//     is never shorter than a fresh load would make it.
//
// The layout gives buf/mask, the consumer line (head, tailCache) and
// the producer line (tail, headCache) a 64-byte line each, with a full
// line of padding between them and at both ends: no two of them, and
// no neighbouring allocation, can share a line at any base alignment.
type Ring struct {
	_    [64]byte
	buf  []rules.Header
	mask uint64
	_    [64]byte
	// head is the consumer cursor: the next slot to pop. Written only
	// by the consumer, read by the producer when its headCache runs
	// out.
	head atomic.Uint64
	// tailCache is the consumer's last load of tail.
	tailCache uint64
	_         [64]byte
	// tail is the producer cursor: the next slot to fill. Written only
	// by the producer, read by the consumer when its tailCache runs
	// out.
	tail atomic.Uint64
	// headCache is the producer's last load of head.
	headCache uint64
	_         [64]byte
}

// NewRing builds a ring holding capacity headers, rounded up to the
// next power of two (minimum 2).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	size := 2
	for size < capacity {
		size <<= 1
		if size <= 0 {
			panic(fmt.Sprintf("ingress: ring capacity %d overflows", capacity))
		}
	}
	return &Ring{buf: make([]rules.Header, size), mask: uint64(size - 1)}
}

// Cap returns the ring capacity in headers.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the current occupancy. Exact from either endpoint's own
// goroutine; a momentary snapshot from anywhere else. The head is
// loaded first: the tail never trails a head loaded before it, so a
// reader on neither side cannot see a pop past the tail it loaded and
// report a wrapped, negative occupancy.
//
//catcam:hotpath
func (r *Ring) Len() int {
	h := r.head.Load()
	return int(r.tail.Load() - h)
}

// TryPush enqueues one header, or reports false when the ring is full
// (the caller accounts the drop). Producer side only.
//
//catcam:hotpath
//catcam:ring-producer
func (r *Ring) TryPush(h rules.Header) bool {
	t := r.tail.Load()
	if t-r.headCache == uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if t-r.headCache == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = h
	// The atomic store publishes the slot write to the consumer.
	r.tail.Store(t + 1)
	return true
}

// PushBatch enqueues headers until the ring fills, returning how many
// were accepted (the rest are the caller's drops). Producer side only.
//
//catcam:hotpath
//catcam:ring-producer
func (r *Ring) PushBatch(hs []rules.Header) int {
	t := r.tail.Load()
	size := uint64(len(r.buf))
	n := uint64(len(hs))
	if free := size - (t - r.headCache); free < n {
		r.headCache = r.head.Load()
		if free = size - (t - r.headCache); free < n {
			n = free
		}
	}
	if n == 0 {
		return 0
	}
	// At most two copies: up to the end of buf, then from its start.
	at := t & r.mask
	k := uint64(copy(r.buf[at:], hs[:n]))
	copy(r.buf, hs[k:n])
	r.tail.Store(t + n)
	return int(n)
}

// PopBatch dequeues up to max headers, appending them to dst and
// returning it — the run-to-completion burst drain. With a reused
// dst[:0] the call is allocation-free. Consumer side only.
//
//catcam:hotpath
//catcam:ring-consumer
func (r *Ring) PopBatch(dst []rules.Header, max int) []rules.Header {
	h := r.head.Load()
	n := int(r.tailCache - h)
	if n < max {
		r.tailCache = r.tail.Load()
		n = int(r.tailCache - h)
	}
	if n == 0 {
		return dst
	}
	if n > max {
		n = max
	}
	// At most two appends: up to the end of buf, then from its start.
	at := int(h & r.mask)
	if end := at + n; end <= len(r.buf) {
		dst = append(dst, r.buf[at:end]...)
	} else {
		dst = append(dst, r.buf[at:]...)
		dst = append(dst, r.buf[:end-len(r.buf)]...)
	}
	// The atomic store releases the drained slots back to the producer.
	r.head.Store(h + uint64(n))
	return dst
}
