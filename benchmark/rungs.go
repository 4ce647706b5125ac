package main

import (
	"slices"
	"time"

	"catcam/internal/bitvec"
	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
	tracepkg "catcam/internal/trace"
)

// rungReps is how often a standalone rung is timed in one go; its value
// is the fastest timing, for the reason a traced span keeps its
// shortest repetition (see tracedReps).
const rungReps = 3

// sinkhole keeps rung results alive so the compiler cannot drop the
// measured calls.
var sinkhole uint64

// timeRung runs body(iters) rungReps times after one untimed pass and
// returns the fastest ns per iteration.
func timeRung(iters int, body func(n int)) float64 {
	body(iters)
	per := make([]float64, rungReps)
	for i := range per {
		t := time.Now()
		body(iters)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(iters)
	}
	return slices.Min(per)
}

// calibrate times a fixed integer kernel the benchmark owns (a
// xorshift recurrence: no memory traffic, no calls into the program)
// and returns millions of steps per second. It moves only when the
// host does, so a slow host is not read as a slow change.
func calibrate() float64 {
	const steps = 1 << 24
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	secs := time.Since(t).Seconds()
	sinkhole += x
	return steps / secs / 1e6
}

// nullBackend is the slow path of the dispatch rung's engine, which
// never classifies.
type nullBackend struct{}

func (nullBackend) ClassifyBatch(_ *tracepkg.Trace, _ []rules.Header, dst []ingress.Result) []ingress.Result {
	return dst
}
func (nullBackend) Epoch() uint64 { return 0 }

// rungs measures the standalone rungs of the ladder on this fixture's
// rules and trace: each layer's public primitive on its own, at the
// geometry the workload runs it (256 rows × 160 bit, 64-packet bursts,
// the serve cache size).
func rungs(f *fixture) map[string]float64 {
	out := map[string]float64{}
	hs := f.trace[:min(len(f.trace), 1<<16)]

	// ingress: flow hash + ring push per packet. The ring is never
	// drained here, so each repetition fills the ring of an engine
	// built beforehand.
	out["ingress.dispatch_ns_per_pkt"] = timeRung(len(hs), dispatchRung(hs))

	ring := ingress.NewRing(ringSize)
	popped := make([]rules.Header, 0, burstSize)
	out["ingress.ring_ns_per_pkt"] = timeRung(4096, func(n int) {
		for i := 0; i < n; i++ {
			burst := hs[(i*burstSize)%(len(hs)-burstSize):][:burstSize]
			//catcam:allow ring "single-goroutine rung: push and pop alternate on one goroutine, never concurrently"
			ring.PushBatch(burst)
			//catcam:allow ring "single-goroutine rung: push and pop alternate on one goroutine, never concurrently"
			popped = ring.PopBatch(popped[:0], burstSize)
		}
	}) / burstSize

	hot := hs[:2048]
	fc := ingress.NewFlowCache(cacheSize)
	for _, h := range hot {
		fc.Insert(h, 1, 7, true)
	}
	out["ingress.flowcache_hit_ns"] = timeRung(len(hot)*16, func(n int) {
		for i := 0; i < n; i++ {
			a, _, _ := fc.Lookup(hot[i%len(hot)], 1)
			sinkhole += uint64(a)
		}
	})
	epoch := uint64(1)
	out["ingress.flowcache_fill_ns"] = timeRung(len(hot), func(n int) {
		epoch++ // every entry is now stale: each lookup misses and refills
		for i := 0; i < n; i++ {
			if _, _, hit := fc.Lookup(hot[i], epoch); !hit {
				fc.Insert(hot[i], epoch, 7, true)
			}
		}
	})

	// sram: one 256-row match array loaded with the workload's first
	// 256 encoded rows, widened to the device's 160-bit key as the
	// device widens them; one 256×256 priority matrix.
	width := core.Compact().KeyWidth
	var words []ternary.Word
	for _, r := range f.rs.Rules {
		for _, w := range r.Encode() {
			wide := ternary.NewWord(width)
			wide.Slot(0, w)
			words = append(words, wide)
		}
		if len(words) >= 256 {
			break
		}
	}
	words = words[:256]
	match := sram.NewTernaryArray(sram.MatchMatrixParams(), width)
	for r, w := range words {
		match.WriteEntry(r, w)
	}
	keys := make([]ternary.Key, 1024)
	for i := range keys {
		keys[i] = ternary.NewKey(width)
		keys[i].LoadPadded(rules.EncodeHeader(hs[i]))
	}
	view := match.SnapshotView()
	mv := bitvec.New(view.Rows())
	acc := make([]uint64, view.RowWords())
	var st sram.Stats
	out["sram.search_ns"] = timeRung(1<<14, func(n int) {
		for i := 0; i < n; i++ {
			view.SearchInto(mv, acc, keys[i%len(keys)], &st)
		}
	})
	out["sram.write_entry_ns"] = timeRung(1<<12, func(n int) {
		for i := 0; i < n; i++ {
			match.WriteEntry(i%256, words[(i*7)%256])
		}
	})

	prio := sram.NewArray(sram.PriorityMatrixParams())
	col := bitvec.New(prio.Params().Rows)
	for i := 0; i < col.Len(); i += 3 {
		col.Set(i)
	}
	out["sram.write_column_ns"] = timeRung(1<<12, func(n int) {
		for i := 0; i < n; i++ {
			prio.WriteColumn(i%256, col)
		}
	})
	pview := prio.SnapshotView()
	active := bitvec.FromIndices(pview.Rows(), 3, 77, 200)
	report := bitvec.New(pview.Rows())
	out["sram.nor_ns"] = timeRung(1<<14, func(n int) {
		for i := 0; i < n; i++ {
			pview.ColumnNORInto(report, active, &st)
		}
	})

	// bitvec: the kernel's inner step on an empty 256-bit match
	// vector, the common case (most subtables do not match).
	v := bitvec.New(256)
	ws := make([]uint64, len(v.Words()))
	out["bitvec.andnot_any_ns"] = timeRung(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if v.AndNotWords(ws).Any() {
				sinkhole++
			}
		}
	})

	key := ternary.NewKey(rules.TupleBits)
	out["rules.encode_header_ns"] = timeRung(len(hs), func(n int) {
		for i := 0; i < n; i++ {
			rules.EncodeHeaderInto(&key, hs[i])
		}
	})
	sinkhole += key.Words()[0] + st.Searches
	return out
}

// dispatchRung returns a rung body that dispatches hs into the ring
// of an engine whose worker is not running.
//
//catcam:ring-producer
func dispatchRung(hs []rules.Header) func(int) {
	engines := make([]*ingress.Engine, rungReps+1)
	for i := range engines {
		engines[i] = ingress.New(ingress.Config{Workers: 1, RingSize: len(hs), Backend: nullBackend{}})
	}
	next := 0
	return func(n int) {
		eng := engines[next]
		next++
		for i := 0; i < n; i++ {
			eng.Dispatch(hs[i])
		}
	}
}
