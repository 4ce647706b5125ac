package telemetry

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	// Run with -race: concurrent increments must be safe and exact.
	reg := NewRegistry()
	c := reg.Counter("test_total", "test", nil)
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultCycleBuckets)
	const workers, perWorker = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(uint64(w%5 + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var bucketSum uint64
	for _, c := range h.BucketCounts() {
		bucketSum += c
	}
	if bucketSum != workers*perWorker {
		t.Errorf("bucket sum = %d, want %d", bucketSum, workers*perWorker)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", Labels{"k": "1"})
	b := reg.Counter("x_total", "", Labels{"k": "1"})
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	c := reg.Counter("x_total", "", Labels{"k": "2"})
	if a == c {
		t.Error("different labels must return a different series")
	}
	h1 := reg.Histogram("h_cycles", "", []uint64{1, 2}, nil)
	h2 := reg.Histogram("h_cycles", "", nil, Labels{"op": "x"})
	if got := len(h2.Bounds()); got != 2 {
		t.Errorf("second series should reuse family bounds, got %d bounds", got)
	}
	if h1 == h2 {
		t.Error("distinct label sets must get distinct histograms")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("same_name", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	reg.Gauge("same_name", "", nil)
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "", nil)
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
}

func TestLabelsSignature(t *testing.T) {
	sig := Labels{"b": "2", "a": "1"}.signature()
	if sig != `{a="1",b="2"}` {
		t.Errorf("signature = %s, want sorted {a=\"1\",b=\"2\"}", sig)
	}
	if got := Labels(nil).signature(); got != "" {
		t.Errorf("empty labels signature = %q, want empty", got)
	}
}

func TestRegistryReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", nil)
	g := reg.Gauge("g", "", nil)
	h := reg.Histogram("h_cycles", "", []uint64{1, 10}, nil)
	c.Add(5)
	g.Set(7)
	h.Observe(3)
	reg.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("Reset must zero all metrics")
	}
	// Series survive a reset.
	if c2 := reg.Counter("c_total", "", nil); c2 != c {
		t.Error("Reset must not drop series")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "", nil)
	g := reg.Gauge("y", "", nil)
	h := reg.Histogram("z", "", nil, nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	reg.Reset()
	var ring *EventRing
	ring.Emit(Event{})
	if ring.Snapshot() != nil || ring.Total() != 0 {
		t.Error("nil ring should be inert")
	}
}
