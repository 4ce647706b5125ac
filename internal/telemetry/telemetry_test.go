package telemetry

import (
	"bytes"
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

// TestReadSeries pins the read series' contract: it exports exactly
// as a stored series with the same value does, every export reads the
// function afresh, re-registering replaces the function, and a series
// cannot be both stored and read.
func TestReadSeries(t *testing.T) {
	stored, read := NewRegistry(), NewRegistry()
	stored.Counter("c_total", "a count", Labels{"k": "v"}).Add(5)
	stored.Gauge("g", "a level", nil).Set(-7)
	n := uint64(5)
	read.CounterFunc("c_total", "a count", Labels{"k": "v"}, func() uint64 { return n })
	read.GaugeFunc("g", "a level", nil, func() int64 { return -7 })
	var a, b bytes.Buffer
	if err := stored.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := read.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("read series export differs from stored:\n%s\nvs\n%s", b.String(), a.String())
	}
	n = 9
	if got := read.Snapshot().Counters[`c_total{k="v"}`]; got != 9 {
		t.Fatalf("export read %d, want the function's current 9", got)
	}
	read.CounterFunc("c_total", "a count", Labels{"k": "v"}, func() uint64 { return 1 })
	if got := read.Snapshot().Counters[`c_total{k="v"}`]; got != 1 {
		t.Fatalf("re-registered series read %d, want 1", got)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", what)
			}
		}()
		f()
	}
	mustPanic("stored over read", func() { read.Counter("c_total", "", Labels{"k": "v"}) })
	mustPanic("read over stored", func() { stored.GaugeFunc("g", "", nil, func() int64 { return 0 }) })
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "", nil)
	g := reg.Gauge("y", "", nil)
	h := reg.Histogram("z", "", nil, nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	reg.CounterFunc("x_total", "", nil, func() uint64 { return 1 })
	reg.GaugeFunc("y_level", "", nil, func() int64 { return 1 })
}
