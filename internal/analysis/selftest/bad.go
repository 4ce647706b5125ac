//go:build catcamselftest

package selftest

import (
	"sync"
	"sync/atomic"
)

// hotAlloc violates hotpath: a //catcam:hotpath function that
// allocates on every call.
//
//catcam:hotpath
func hotAlloc(n int) []int {
	return make([]int, n)
}

// counter violates lockcheck: Bump touches the guarded field without
// holding mu.
type counter struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

// Bump increments the counter (incorrectly, without the lock).
func (c *counter) Bump() { c.n++ }

// Locked is here so mu is not write-only; it locks correctly.
func (c *counter) Locked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// hits violates atomiccheck: n is updated with sync/atomic but read
// with a plain load.
type hits struct{ n uint64 }

func (h *hits) Add()         { atomic.AddUint64(&h.n, 1) }
func (h *hits) Read() uint64 { return h.n }

// arr violates cyclecheck: Sneak writes a cycle-state row without
// touching any ...Cycles accounting field.
type arr struct {
	rows  []uint64 //catcam:cycle-state
	stats struct{ Cycles uint64 }
}

// Sneak stores v without accounting the modeled write cycle.
func (a *arr) Sneak(i int, v uint64) { a.rows[i] = v }

// Write is the accounted counterpart, so stats is not dead weight.
func (a *arr) Write(i int, v uint64) {
	a.rows[i] = v
	a.stats.Cycles++
}

// pub violates the write-guarded-by rule: Publish stores a new
// snapshot pointer without holding the update mutex — the exact bug
// class the epoch-publication annotation exists to catch.
type pub struct {
	mu   sync.Mutex
	snap atomic.Pointer[int] //catcam:write-guarded-by mu
}

// Publish swaps in a new snapshot without the update lock (bad).
func (p *pub) Publish(v *int) { p.snap.Store(v) }

// Current loads lock-free — legal by design, must NOT trip lockcheck.
func (p *pub) Current() *int { return p.snap.Load() }

// PublishLocked is the correct counterpart, so mu is not write-only.
func (p *pub) PublishLocked(v *int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snap.Store(v)
}

// view is epoch-published read state; Mutate violates epochcheck's
// write-dead rule by reassigning a field after construction.
//
//catcam:snapshot
type view struct{ rows []uint64 }

// Mutate rewrites published snapshot state in place (bad).
func (v *view) Mutate(rs []uint64) { v.rows = rs }

// epochLive is mutable state; publishing it through atomic.Pointer
// without the snapshot mark violates epochcheck.
type epochLive struct{ n int }

// epochSnap is properly marked, so writes after publication trip the
// write-dead rule.
//
//catcam:snapshot
type epochSnap struct {
	vals []int
}

// epochHolder publishes unproven state (bad).
type epochHolder struct {
	cur atomic.Pointer[epochLive]
}

// republish mutates a snapshot that has already escaped (bad).
func republish(h *epochHolder, s *epochSnap) {
	s.vals[0] = 1
	_ = h
}

// ringT is an SPSC ring with role-marked endpoints; the producer keeps
// a plain copy of head.
type ringT struct {
	head      atomic.Uint64
	tail      atomic.Uint64
	headCache uint64
}

// push is the producer end.
//
//catcam:ring-producer
func (r *ringT) push() {
	r.headCache = r.head.Load()
	r.tail.Add(1)
}

// peek violates ringcheck: a consumer writing the producer's copy of
// head.
//
//catcam:ring-consumer
func (r *ringT) peek() { r.headCache = r.head.Load() }

// pop is the consumer end.
//
//catcam:ring-consumer
func (r *ringT) pop() { r.head.Add(1) }

// crossRole violates ringcheck: a consumer driving the producer end.
//
//catcam:ring-consumer
func crossRole(r *ringT) {
	r.push()
	r.pop()
}

// poolScratchT is pooled but unmarked: the checkout below violates
// poolcheck's proof obligation.
type poolScratchT struct{ buf []int }

var poolHolder sync.Pool

func checkoutUnproven() *poolScratchT {
	return poolHolder.Get().(*poolScratchT)
}

// scratchT is marked; leaking its memory into a global violates the
// escape rule.
//
//catcam:scratch
type scratchT struct{ buf []int }

var leakedScratch []int

func leakScratch(s *scratchT) { leakedScratch = s.buf }

// lockA and lockB are acquired in both orders below: the lock-order
// cycle lockcheck's order rule exists to reject.
type lockA struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

type lockB struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

func abDown(a *lockA, b *lockB) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	a.n++
}

func baUp(a *lockA, b *lockB) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b.n++
}

// The annotation below violates directives: the verb is misspelled.
//
//catcam:gaurded-by mu
var _ = 0
