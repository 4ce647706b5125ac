package telemetry

import (
	"sync"
	"testing"
)

// rec is a ring record that lets a reader detect a torn or misfiled
// slot: the publisher writes a and b as a pair, the ring stamps seq.
type rec struct {
	seq  uint64
	a, b int
}

func newRecRing(capacity int) *Ring[rec] {
	return NewRing(capacity, func(r *rec) *uint64 { return &r.seq })
}

// retained collects what one Each walk sees.
func retained(r *Ring[rec]) (snap []*rec) {
	r.Each(func(p *rec) { snap = append(snap, p) })
	return snap
}

// checkRun fails unless snap is a gap-free run of sequence numbers, at
// most capacity long, whose records are as their publisher wrote them.
func checkRun(t *testing.T, snap []*rec, capacity int) {
	t.Helper()
	if len(snap) > capacity {
		t.Fatalf("snapshot holds %d records, capacity is %d", len(snap), capacity)
	}
	for i, r := range snap {
		if r.a != r.b {
			t.Fatalf("record seq %d is torn: a=%d b=%d", r.seq, r.a, r.b)
		}
		if i > 0 && r.seq != snap[i-1].seq+1 {
			t.Fatalf("snapshot not a gap-free run: seq %d follows %d", r.seq, snap[i-1].seq)
		}
	}
}

// TestRing is the one test of the publication scheme trace.Tracer and
// the flightrec auditor share. Run with -race.
func TestRing(t *testing.T) {
	t.Run("wraparound", func(t *testing.T) {
		const capacity = 4
		r := newRecRing(capacity)
		if retained(r) != nil || r.Total() != 0 || r.Cap() != capacity {
			t.Fatal("fresh ring not empty")
		}
		for i := 1; i <= 10; i++ {
			r.Publish(&rec{a: i, b: i})
			snap := retained(r)
			checkRun(t, snap, capacity)
			// With no publisher running the run is the suffix: it ends at
			// the record just published and is as long as the ring allows.
			if last := snap[len(snap)-1]; last.seq != uint64(i) || last.a != i {
				t.Fatalf("after %d publishes the newest record is seq %d value %d", i, last.seq, last.a)
			}
			if want := min(i, capacity); len(snap) != want {
				t.Fatalf("after %d publishes the snapshot holds %d records, want %d", i, len(snap), want)
			}
		}
		if r.Total() != 10 {
			t.Fatalf("Total = %d, want 10 (overwritten records still count)", r.Total())
		}
	})

	// A slot claimed but not yet stored, or lapped during the read, can
	// hole a snapshot taken while publishers run, so those are held to
	// publication order inside the live window; once the publishers are
	// done the snapshot is again exactly the last Cap records.
	t.Run("concurrent publishers", func(t *testing.T) {
		const capacity, workers, perWorker = 64, 4, 2_000
		r := newRecRing(capacity)
		var pubs sync.WaitGroup
		for w := 0; w < workers; w++ {
			pubs.Add(1)
			go func(w int) {
				defer pubs.Done()
				for i := 0; i < perWorker; i++ {
					v := w*perWorker + i
					r.Publish(&rec{a: v, b: v})
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { pubs.Wait(); close(done) }()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			hi := r.Total()
			snap := retained(r)
			for i, p := range snap {
				if p.a != p.b {
					t.Fatalf("record seq %d is torn: a=%d b=%d", p.seq, p.a, p.b)
				}
				if i > 0 && p.seq <= snap[i-1].seq {
					t.Fatalf("snapshot out of publication order: seq %d after %d", p.seq, snap[i-1].seq)
				}
			}
			if n := len(snap); n > 0 && snap[0].seq+capacity <= hi {
				t.Fatalf("snapshot reaches back to seq %d, outside the window that ended at or after %d", snap[0].seq, hi)
			}
		}
		snap := retained(r)
		checkRun(t, snap, capacity)
		if len(snap) != capacity || snap[len(snap)-1].seq != workers*perWorker {
			t.Fatalf("quiescent snapshot: %d records ending at seq %d, want the last %d of %d",
				len(snap), snap[len(snap)-1].seq, capacity, workers*perWorker)
		}
	})
}

// TestSampler checks the 1-in-N gate: off at 0, every event at 1, and
// exactly one hit per N events even when goroutines share the gate.
func TestSampler(t *testing.T) {
	var s Sampler
	if s.Hit() || s.Every() != 0 {
		t.Fatal("zero Sampler must be off")
	}
	s.SetEvery(1)
	if !s.Hit() || !s.Hit() {
		t.Fatal("every=1 sampler missed")
	}
	s.SetEvery(4)
	const workers, perWorker = 4, 1_000
	hits := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if s.Hit() {
					hits[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	// 4000 consecutive counter values hold exactly 1000 multiples of
	// four wherever they start, so the count is exact, not approximate.
	if total != workers*perWorker/4 {
		t.Fatalf("every=4 sampler hit %d of %d events, want %d", total, workers*perWorker, workers*perWorker/4)
	}
}
