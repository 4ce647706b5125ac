package ingress

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"catcam/internal/rules"
)

func hdr(i int) rules.Header {
	return rules.Header{SrcIP: uint32(i), DstIP: uint32(i * 7), SrcPort: uint16(i), DstPort: uint16(i + 1), Proto: uint8(i % 3)}
}

func TestRingRoundUpAndCap(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

//catcam:allow ring "single-goroutine test drives both ring ends"
func TestRingFIFOAndWraparound(t *testing.T) {
	r := NewRing(8)
	next := 0 // next value to push
	want := 0 // next value expected out
	// Push/pop in mismatched chunk sizes for several capacities' worth
	// of traffic so the cursors wrap the buffer repeatedly.
	var out []rules.Header
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			if r.TryPush(hdr(next)) {
				next++
			}
		}
		out = r.PopBatch(out[:0], 3)
		for _, h := range out {
			if h != hdr(want) {
				t.Fatalf("round %d: popped %v, want %v", round, h, hdr(want))
			}
			want++
		}
	}
	// Drain the remainder.
	out = r.PopBatch(out[:0], r.Cap())
	for _, h := range out {
		if h != hdr(want) {
			t.Fatalf("drain: popped %v, want %v", h, hdr(want))
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d packets, pushed %d", want, next)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", r.Len())
	}
}

//catcam:allow ring "single-goroutine test drives both ring ends"
func TestRingFullRejects(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		if !r.TryPush(hdr(i)) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.TryPush(hdr(99)) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if n := r.PushBatch([]rules.Header{hdr(1), hdr(2)}); n != 0 {
		t.Fatalf("PushBatch on full ring accepted %d", n)
	}
	out := r.PopBatch(nil, 1)
	if len(out) != 1 || out[0] != hdr(0) {
		t.Fatalf("PopBatch = %v, want [hdr(0)]", out)
	}
	if n := r.PushBatch([]rules.Header{hdr(4), hdr(5)}); n != 1 {
		t.Fatalf("PushBatch with one free slot accepted %d, want 1", n)
	}
}

// TestRingSPSC hammers the ring from one producer and one consumer
// goroutine; under -race this doubles as a memory-model check on the
// cursor publication. The mixed case pushes through both producer
// entry points on an 8-slot ring, so the producer's copy of head and
// the consumer's copy of tail go stale every few operations.
//
//catcam:allow ring "the push closures run only on testRingSPSC's one producer goroutine"
func TestRingSPSC(t *testing.T) {
	t.Run("TryPush", func(t *testing.T) {
		testRingSPSC(t, 64, func(r *Ring, next int) int {
			if r.TryPush(hdr(next)) {
				return 1
			}
			return 0
		})
	})
	t.Run("TryPushAndPushBatch", func(t *testing.T) {
		var batch []rules.Header
		testRingSPSC(t, 8, func(r *Ring, next int) int {
			// Every third step is a single push; the others offer a
			// batch of 1..5 headers, more than the ring may have room
			// for.
			if next%3 == 0 {
				if r.TryPush(hdr(next)) {
					return 1
				}
				return 0
			}
			batch = batch[:0]
			for i := 0; i < 1+next%5 && next+i < spscTotal; i++ {
				batch = append(batch, hdr(next+i))
			}
			return r.PushBatch(batch)
		})
	})
}

// spscTotal is how many headers each TestRingSPSC case moves.
const spscTotal = 200000

// testRingSPSC pushes hdr(0) .. hdr(spscTotal-1) through push on a
// spawned producer, while the test goroutine pops bursts of 16 and
// checks the order. push offers headers from next on, never past
// spscTotal, and returns how many the ring accepted.
//
//catcam:allow ring "consumer drains on the test goroutine; the producer is the one spawned goroutine"
func testRingSPSC(t *testing.T, capacity int, push func(r *Ring, next int) int) {
	r := NewRing(capacity)
	const total = spscTotal
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if n := push(r, i); n > 0 {
				i += n
			} else {
				runtime.Gosched() // full: let the consumer run (matters at GOMAXPROCS=1)
			}
		}
	}()
	got := 0
	var out []rules.Header
	for got < total {
		out = r.PopBatch(out[:0], 16)
		if len(out) == 0 {
			runtime.Gosched()
		}
		for _, h := range out {
			if h != hdr(got) {
				t.Fatalf("packet %d: got %v, want %v", got, h, hdr(got))
			}
			got++
		}
	}
	wg.Wait()
	if got != total || r.Len() != 0 {
		t.Fatalf("consumed %d of %d, Len = %d after consuming all, want 0", got, total, r.Len())
	}
}

// TestRingStaleCopies drives each side's copy of the far cursor stale
// and checks that a stale copy never costs a header: each operation
// must see the true state once its copy runs short.
//
//catcam:allow ring "single-goroutine test drives both ring ends"
func TestRingStaleCopies(t *testing.T) {
	t.Run("PopBatchFullBurst", func(t *testing.T) {
		r := NewRing(8)
		r.PushBatch([]rules.Header{hdr(0), hdr(1)})
		out := r.PopBatch(nil, 4) // tailCache = 2 = head
		for i := 2; i < 8; i++ {
			r.TryPush(hdr(i))
		}
		if r.tailCache != r.head.Load() || r.tail.Load() != 8 {
			t.Fatalf("setup: tailCache %d, head %d, tail %d; want a stale tailCache", r.tailCache, r.head.Load(), r.tail.Load())
		}
		out = r.PopBatch(out[:0], 4)
		if len(out) != 4 || out[0] != hdr(2) || out[3] != hdr(5) {
			t.Fatalf("PopBatch(4) with 6 visible = %v, want hdr(2..5)", out)
		}
	})
	t.Run("PushBatchTrueFreeSpace", func(t *testing.T) {
		r := NewRing(8)
		for i := 0; i < 8; i++ {
			r.TryPush(hdr(i))
		}
		out := r.PopBatch(nil, 3)
		if r.headCache != 0 || r.head.Load() != 3 {
			t.Fatalf("setup: headCache %d, head %d; want a stale headCache", r.headCache, r.head.Load())
		}
		batch := []rules.Header{hdr(8), hdr(9), hdr(10), hdr(11), hdr(12)}
		if n := r.PushBatch(batch); n != 3 {
			t.Fatalf("PushBatch(5) with 3 free accepted %d, want 3", n)
		}
		out = r.PopBatch(out[:0], 8)
		for i, h := range out {
			if h != hdr(3+i) {
				t.Fatalf("slot %d: got %v, want %v", i, h, hdr(3+i))
			}
		}
		if len(out) != 8 {
			t.Fatalf("drained %d, want 8", len(out))
		}
	})
	t.Run("TryPushLooksFull", func(t *testing.T) {
		r := NewRing(4)
		for i := 0; i < 4; i++ {
			r.TryPush(hdr(i))
		}
		r.PopBatch(nil, 1)
		if r.tail.Load()-r.headCache != uint64(r.Cap()) {
			t.Fatalf("setup: headCache %d, tail %d; want a ring that looks full", r.headCache, r.tail.Load())
		}
		if !r.TryPush(hdr(4)) {
			t.Fatal("TryPush rejected on a ring with one free slot")
		}
		if r.TryPush(hdr(5)) {
			t.Fatal("TryPush accepted on a full ring")
		}
	})
}

// TestRingLayout pins the cache-line layout: buf/mask, the consumer
// line (head and its tail copy) and the producer line (tail and its
// head copy) each sit on their own 64-byte line, a full line of
// padding apart, and the struct starts and ends with a full line of
// padding. The gaps hold at any base alignment, so neither a
// neighbouring allocation nor the other side can share a cursor line.
//
//catcam:allow atomic "unsafe.Offsetof and unsafe.Sizeof neither evaluate nor copy their operand"
func TestRingLayout(t *testing.T) {
	const line = 64
	var r Ring
	type span struct {
		name       string
		start, end uintptr // [start, end) in bytes from the struct start
	}
	fields := []span{
		{"buf/mask", unsafe.Offsetof(r.buf), unsafe.Offsetof(r.mask) + unsafe.Sizeof(r.mask)},
		{"head/tailCache", unsafe.Offsetof(r.head), unsafe.Offsetof(r.tailCache) + unsafe.Sizeof(r.tailCache)},
		{"tail/headCache", unsafe.Offsetof(r.tail), unsafe.Offsetof(r.headCache) + unsafe.Sizeof(r.headCache)},
	}
	if fields[0].start < line {
		t.Errorf("%s starts at byte %d: want a full %d-byte pad before it", fields[0].name, fields[0].start, line)
	}
	if last := fields[len(fields)-1]; unsafe.Sizeof(r)-last.end < line {
		t.Errorf("%s ends %d bytes before the struct end: want a full %d-byte pad after it", last.name, unsafe.Sizeof(r)-last.end, line)
	}
	for i, f := range fields {
		// Each group fits one line when the struct is line-aligned.
		if f.start/line != (f.end-1)/line {
			t.Errorf("%s spans bytes [%d, %d): not one %d-byte line", f.name, f.start, f.end, line)
		}
		if i > 0 && f.start-fields[i-1].end < line {
			t.Errorf("%s starts %d bytes after %s ends: want at least %d", f.name, f.start-fields[i-1].end, fields[i-1].name, line)
		}
	}
	if unsafe.Offsetof(r.head) > unsafe.Offsetof(r.tailCache) || unsafe.Offsetof(r.tail) > unsafe.Offsetof(r.headCache) {
		t.Error("a cursor's side-local copy is not on its owner's line")
	}
	if unsafe.Sizeof(r)%line != 0 {
		t.Errorf("Sizeof(Ring) = %d: want a multiple of %d", unsafe.Sizeof(r), line)
	}
}

//catcam:allow ring "single-goroutine test drives both ring ends"
func TestRingOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := NewRing(64)
	buf := make([]rules.Header, 0, 16)
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			r.TryPush(hdr(i))
		}
		buf = r.PopBatch(buf[:0], 16)
	}); n != 0 {
		t.Fatalf("ring push/pop allocates %v per run, want 0", n)
	}
}
