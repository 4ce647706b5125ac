// Package ring is the ringcheck golden package: role marking, cursor
// and side-local field ownership, caller discipline and spawn-site
// accounting.
package ring

import "sync/atomic"

// Ring is a minimal SPSC ring whose sides keep plain copies of the far
// cursor.
type Ring struct {
	buf       []int
	head      atomic.Uint64
	tailCache uint64 // consumer's copy of tail
	tail      atomic.Uint64
	headCache uint64 // producer's copy of head
	pushes    int
}

// Push is the producer end.
//
//catcam:ring-producer
func (r *Ring) Push(v int) bool {
	t := r.tail.Load()
	if t-r.headCache == uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if t-r.headCache == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t%uint64(len(r.buf))] = v // want `field Ring.buf is written by both producer- and consumer-marked methods`
	r.pushes++                      // want `field Ring.pushes is written by both producer- and consumer-marked methods`
	r.tail.Store(t + 1)
	return true
}

// Pop is the consumer end.
//
//catcam:ring-consumer
func (r *Ring) Pop() (int, bool) {
	h := r.head.Load()
	if h == r.tailCache {
		if r.tailCache = r.tail.Load(); h == r.tailCache {
			return 0, false
		}
	}
	v := r.buf[h%uint64(len(r.buf))]
	r.head.Store(h + 1)
	return v, true
}

// Refill is producer-marked but writes the consumer's copy of tail.
//
//catcam:ring-producer
func (r *Ring) Refill() {
	r.tailCache = r.tail.Load() // want `field Ring.tailCache is written by both producer- and consumer-marked methods`
}

// Count is consumer-marked and bumps the producer's push count; the
// report anchors at the producer-side write.
//
//catcam:ring-consumer
func (r *Ring) Count() {
	r.pushes++
}

// Rewind is consumer-marked but copies into the producer's buffer; the
// report anchors at the producer-side write.
//
//catcam:ring-consumer
func (r *Ring) Rewind(vs []int) {
	copy(r.buf[1:], vs)
}

// Fill copies into the buffer without a role mark.
func (r *Ring) Fill(vs []int) { // want `\(\*Ring\)\.Fill mutates ring state of Ring but carries no`
	copy(r.buf, vs)
}

// Peek copies out of the buffer, which writes no ring state: no role
// needed.
func (r *Ring) Peek(dst []int) int {
	return copy(dst, r.buf)
}

// Len is read-only on both cursors: no role needed.
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Drop mutates the consumer cursor without a role mark.
func (r *Ring) Drop() { // want `\(\*Ring\)\.Drop mutates ring state of Ring but carries no`
	r.head.Store(r.tail.Load())
}

// Both claims both roles.
//
//catcam:ring-producer
//catcam:ring-consumer
func (r *Ring) Both() {} // want `Both is marked both`

// Steal is producer-marked but stores the consumer-owned cursor.
//
//catcam:ring-producer
func (r *Ring) Steal() {
	r.head.Store(0) // want `atomic cursor Ring.head is stored by both producer- and consumer-marked methods`
}

// feed is the marked producer driver: legal.
//
//catcam:ring-producer
func feed(r *Ring, vs []int) {
	for _, v := range vs {
		r.Push(v)
	}
}

// drain is consumer-marked but calls the producer end.
//
//catcam:ring-consumer
func drain(r *Ring) {
	r.Push(0) // want `drain \(ring-consumer\) calls \(\*Ring\).Push \(ring-producer\)`
	for {
		if _, ok := r.Pop(); !ok {
			return
		}
	}
}

// unmarked drives the ring with no role at all.
func unmarked(r *Ring) {
	r.Push(1) // want `unmarked calls ring-producer method \(\*Ring\).Push without being marked`
}

// testDriver opts out: a single-goroutine test helper.
func testDriver(r *Ring) {
	r.Push(2) //catcam:allow ring "single-goroutine test drives both ends"
	r.Pop()   //catcam:allow ring "single-goroutine test drives both ends"
}

// launch spawns each role once: legal.
func launch(r *Ring, vs []int) {
	go feed(r, vs)
	go func() {
		for {
			if _, ok := r.Pop(); !ok {
				return
			}
		}
	}()
}

// relaunch adds a second consumer spawn site.
func relaunch(r *Ring) {
	go func() { // want `second ring-consumer goroutine spawn site in this package`
		r.Pop()
	}()
}
