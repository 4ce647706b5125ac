package ingress

import (
	"fmt"
	"runtime"
	"testing"

	"catcam/internal/rules"
	tracepkg "catcam/internal/trace"
)

// TestWorkerForPinned pins the flow-to-worker assignment at 2 and 4
// workers: grouping a batch by worker, and skipping the hash when there
// is one worker, must not move a single flow.
func TestWorkerForPinned(t *testing.T) {
	dev, _ := testDevice(t, 10)
	e1 := New(Config{Workers: 1, Backend: NewLookupBackend(dev)})
	e2 := New(Config{Workers: 2, Backend: NewLookupBackend(dev)})
	e4 := New(Config{Workers: 4, Backend: NewLookupBackend(dev)})
	for _, tc := range []struct{ i, w2, w4 int }{
		{0, 0, 1}, {977, 1, 2}, {1954, 1, 3}, {2931, 1, 2},
		{3908, 0, 1}, {4885, 0, 1}, {5862, 1, 3}, {6839, 0, 1},
		{7816, 1, 3}, {8793, 0, 1}, {9770, 1, 3}, {10747, 0, 1},
		{11724, 0, 1}, {12701, 0, 0}, {13678, 1, 3}, {14655, 0, 1},
	} {
		h := hdr(tc.i)
		if w := e1.workerFor(h); w != 0 {
			t.Errorf("hdr(%d): worker %d of 1, want 0", tc.i, w)
		}
		if w := e2.workerFor(h); w != tc.w2 {
			t.Errorf("hdr(%d): worker %d of 2, want %d", tc.i, w, tc.w2)
		}
		if w := e4.workerFor(h); w != tc.w4 {
			t.Errorf("hdr(%d): worker %d of 4, want %d", tc.i, w, tc.w4)
		}
	}
}

// TestDispatchBatchAllocFree holds DispatchBatch to zero allocations,
// with one worker and with three, through full rings.
//
//catcam:allow ring "single-goroutine test drives both ring ends; the engine is never started"
func TestDispatchBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dev, _ := testDevice(t, 10)
	hs := make([]rules.Header, 200)
	for i := range hs {
		hs[i] = hdr(i * 31)
	}
	for _, workers := range []int{1, 3} {
		e := New(Config{Workers: workers, RingSize: 64, Burst: 32, Backend: NewLookupBackend(dev)})
		out := make([]rules.Header, 0, 64)
		if n := testing.AllocsPerRun(100, func() {
			e.DispatchBatch(hs)
			for _, w := range e.workers {
				out = w.ring.PopBatch(out[:0], 48)
			}
		}); n != 0 {
			t.Fatalf("%d workers: DispatchBatch allocates %v per run, want 0", workers, n)
		}
	}
}

// nopBackend matches nothing and costs nothing: it isolates the
// source-to-worker hand-off in BenchmarkDispatch.
type nopBackend struct{}

func (nopBackend) ClassifyBatch(_ *tracepkg.Trace, hs []rules.Header, dst []Result) []Result {
	for range hs {
		dst = append(dst, Result{})
	}
	return dst
}

func (nopBackend) Epoch() uint64 { return 0 }

// BenchmarkDispatch times the source side of the hand-off on a started
// engine whose workers classify through nopBackend, fed as RunSource
// feeds it: a Zipf Generator (catcam-serve's -zipf-s 1.2) fills each
// 64-header burst and one DispatchBatch routes it, at 1, 2 and 4
// workers. Like RunSource, the source yields only when a whole burst
// is rejected. src-ns/pkt is the time spent inside DispatchBatch per
// accepted packet (rejections are source work that delivers nothing);
// the Fill, the yields and the workers' own time are not in it.
// drops/pkt is the share of offered packets the rings rejected; ns/op
// is wall time per offered packet.
//
//catcam:allow ring "the benchmark goroutine is the single producer; workers consume"
func BenchmarkDispatch(b *testing.B) {
	const burst = 64
	rs := testRuleset(100)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			gen := NewGenerator(rs, GenConfig{Flows: 100_000, ZipfS: 1.2, Seed: 7})
			e := New(Config{Workers: workers, RingSize: 2048, Burst: burst, Backend: nopBackend{}})
			e.Start()
			hs := make([]rules.Header, burst)
			accepted, inCalls := 0, uint64(0)
			b.ResetTimer()
			for off := 0; off < b.N; off += burst {
				hs = hs[:min(burst, b.N-off)]
				gen.Fill(hs)
				start := tracepkg.Nanos()
				n := e.DispatchBatch(hs)
				inCalls += tracepkg.Nanos() - start
				if n == 0 {
					runtime.Gosched()
				}
				accepted += n
			}
			b.StopTimer()
			e.Stop()
			if accepted > 0 {
				b.ReportMetric(float64(inCalls)/float64(accepted), "src-ns/pkt")
			}
			b.ReportMetric(float64(b.N-accepted)/float64(b.N), "drops/pkt")
		})
	}
}
