// Package order is the lock-order golden package: direct cycles,
// call-transitive cycles, release handling, and the allow hatch.
package order

import "sync"

// P is one lock tier.
type P struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

// Q is another.
type Q struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

// R only ever follows P (the reverse order is vouched below).
type R struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

// S participates in the call-transitive cycle with Q.
type S struct {
	mu sync.Mutex
	n  int //catcam:guarded-by mu
}

// PQ takes P before Q.
func PQ(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q.mu.Lock() // want `PQ acquires order\.Q\.mu while holding order\.P\.mu, closing a lock-order cycle`
	q.n++
	q.mu.Unlock()
	p.n++
}

// QP takes them in the reverse order: the cycle.
func QP(p *P, q *Q) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.mu.Lock() // want `QP acquires order\.P\.mu while holding order\.Q\.mu, closing a lock-order cycle`
	p.n++
	p.mu.Unlock()
	q.n++
}

// Sequential releases before the next acquire: no edge, no report.
func Sequential(p *P, q *Q) {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
}

// PR orders P before R; the reverse only occurs on the vouched path
// below, so no cycle is recorded.
func PR(p *P, r *R) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

// RPAllowed vouches for the reversed order: the edge is dropped.
func RPAllowed(p *P, r *R) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.mu.Lock() //catcam:allow lockorder "startup path, PR cannot run concurrently"
	p.n++
	p.mu.Unlock()
}

func lockS(s *S) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// viaCall picks up lockS's acquire transitively while holding Q.
func viaCall(q *Q, s *S) {
	q.mu.Lock()
	defer q.mu.Unlock()
	lockS(s) // want `viaCall acquires order\.S\.mu while holding order\.Q\.mu, closing a lock-order cycle`
}

// back closes the S/Q cycle directly.
func back(s *S, q *Q) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q.mu.Lock() // want `back acquires order\.Q\.mu while holding order\.S\.mu, closing a lock-order cycle`
	q.n++
	q.mu.Unlock()
}
