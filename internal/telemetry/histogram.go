package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefaultCycleBuckets covers the cycle costs this system produces:
// update classes cost 1/3/5 cycles, reallocation chains and queue waits
// stretch into the tens and hundreds. The fine low end resolves the
// paper's cycle classes exactly; the geometric tail catches O(n)
// regressions (a reallocation-chain bug shows up as mass above 8).
var DefaultCycleBuckets = []uint64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024}

// DefaultDepthBuckets suits small structural counts (goto-chain depth,
// eviction-chain length, queue depth samples).
var DefaultDepthBuckets = []uint64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64}

// DefaultLatencyBuckets covers host wall-clock latencies in
// nanoseconds (cluster classify batches, migration passes): geometric
// from 512ns to ~67ms.
var DefaultLatencyBuckets = []uint64{
	512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
	131072, 262144, 524288, 1048576, 2097152, 4194304,
	8388608, 16777216, 33554432, 67108864,
}

// Histogram is a fixed-bucket histogram over uint64 values (cycles,
// depths). Observations are lock-free: one linear scan over at most a
// few dozen bounds plus four atomic adds. Bounds are upper-inclusive
// (`v <= bound` lands in that bucket), matching Prometheus `le`
// semantics; values above the last bound land in the implicit +Inf
// bucket.
type Histogram struct {
	bounds    []uint64                   // strictly increasing upper bounds
	counts    []atomic.Uint64            // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar] //catcam:allow epoch "per-bucket latest-exemplar slot; each store publishes a freshly built value"
	sum       atomic.Uint64
	count     atomic.Uint64
	max       atomic.Uint64
	min       atomic.Uint64 // stored as ^value so zero means "unset"
}

// NewHistogram builds a histogram with the given bucket upper bounds
// (strictly increasing, non-empty).
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:    append([]uint64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if cur != 0 && ^cur <= v {
			break
		}
		if h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest observed value (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	v := h.min.Load()
	if v == 0 {
		return 0
	}
	return ^v
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []uint64 {
	if h == nil {
		return nil
	}
	return append([]uint64(nil), h.bounds...)
}

// BucketCounts returns per-bucket (non-cumulative) counts; the final
// element is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket, the standard
// fixed-bucket estimator: error is bounded by bucket width. Returns 0
// when empty. Quantiles landing in the +Inf bucket report the observed
// maximum (the bound is unknown, the max is).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.BucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		if i == len(counts)-1 {
			return float64(h.Max())
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		frac := float64(rank-cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(h.Max())
}

// Reset zeroes all buckets and aggregates.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.sum.Store(0)
	h.count.Store(0)
	h.max.Store(0)
	h.min.Store(0)
}
