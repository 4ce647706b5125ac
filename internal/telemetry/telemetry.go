// Package telemetry is the runtime observability substrate for the
// CATCAM system: atomic counters, gauges, fixed-bucket latency
// histograms with quantile estimation, and the bounded overwrite ring
// behind the retained-record views, plus Prometheus-text and JSON
// snapshot encoders.
//
// The package is deliberately zero-dependency (stdlib only) and
// allocation-free on the hot path: Counter.Add, Gauge.Set and
// Histogram.Observe are single atomic operations (plus a short linear
// bucket scan) and never allocate, take locks, or call out. The
// registry mutex is touched only at registration and export time —
// never per observation — so instrumented device/pipeline code pays a
// handful of uncontended atomics per operation.
//
// A count its owner already keeps is registered as a read series
// (CounterFunc, GaugeFunc): the registry calls the owner's read
// function at export time, so the count has one writer and the
// exported series cannot drift from it.
//
// All metric methods are nil-receiver safe: un-attached instrumentation
// costs a single pointer test.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches constant dimensions to a metric series (e.g.
// {"table": "0"}). Label sets are copied at registration; mutating the
// map afterwards has no effect on the registered series.
type Labels map[string]string

// signature renders labels in a canonical sorted form, used both as the
// series key and (when non-empty) as the Prometheus label block.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// clone copies the label set.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Merged returns a new label set combining l with extra (extra wins on
// key collisions).
func (l Labels) Merged(extra Labels) Labels {
	out := make(Labels, len(l)+len(extra))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (warmup-phase support; Prometheus semantics
// tolerate counter resets).
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricType discriminates registry families.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family. count and level
// are what an export reads: the stored instrument's Value, or the
// function a read series was registered with.
type series struct {
	labels Labels
	sig    string
	c      *Counter
	g      *Gauge
	h      *Histogram
	count  func() uint64
	level  func() int64
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []uint64 // histogram families: shared bucket bounds
	series []*series
	bySig  map[string]*series
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is safe to register against (returns
// nil metrics, whose methods are no-ops).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order of family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns the family for name, creating it with the given
// type. Registering the same name under a different type panics — that
// is an instrumentation bug, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ metricType, bounds []uint64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ,
			bounds: append([]uint64(nil), bounds...),
			bySig:  make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// getSeries returns the series for the label set, creating it if new.
func (f *family) getSeries(labels Labels) *series {
	sig := labels.signature()
	if s, ok := f.bySig[sig]; ok {
		return s
	}
	s := &series{labels: labels.clone(), sig: sig}
	f.bySig[sig] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	return s
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getFamily(name, help, typeCounter, nil).getSeries(labels)
	if s.c == nil {
		notBoth(name, s, s.count != nil)
		s.c = &Counter{}
		s.count = s.c.Value
	}
	return s.c
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getFamily(name, help, typeGauge, nil).getSeries(labels)
	if s.g == nil {
		notBoth(name, s, s.level != nil)
		s.g = &Gauge{}
		s.level = s.g.Value
	}
	return s.g
}

// CounterFunc registers the counter series name{labels} as a read
// series: every export calls fn for its value. fn must be lock-free —
// atomic loads or a published-snapshot load — because it runs under
// the registry lock, so a scrape never waits on a writer. Registering
// the series again replaces fn.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getFamily(name, help, typeCounter, nil).getSeries(labels)
	notBoth(name, s, s.c != nil)
	s.count = fn
}

// GaugeFunc is CounterFunc for a gauge series.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getFamily(name, help, typeGauge, nil).getSeries(labels)
	notBoth(name, s, s.g != nil)
	s.level = fn
}

// notBoth panics when a series would be both stored and read: it is
// one or the other, and asking for the other kind is an
// instrumentation bug.
func notBoth(name string, s *series, both bool) {
	if both {
		panic(fmt.Sprintf("telemetry: series %s%s registered both stored and read", name, s.sig))
	}
}

// Histogram returns (creating if needed) the histogram series
// name{labels}. The first registration of a name fixes its bucket
// bounds; later calls may pass nil to reuse them.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeHistogram, bounds)
	if len(f.bounds) == 0 {
		f.bounds = append([]uint64(nil), DefaultCycleBuckets...)
	}
	s := f.getSeries(labels)
	if s.h == nil {
		s.h = NewHistogram(f.bounds)
	}
	return s.h
}

// visit walks families in registration order, series in sorted label
// order, under the registry lock.
func (r *Registry) visit(fn func(f *family, s *series)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		for _, s := range f.series {
			fn(f, s)
		}
	}
}
