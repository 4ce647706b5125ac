package main

import (
	"sync/atomic"
	"time"

	"catcam/internal/flightrec"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	"catcam/internal/stateobs"
	"catcam/internal/telemetry"
	"catcam/internal/trace"
)

// ringBackoff is how long the source sleeps when the ring is full. It
// never spins: on a 2-vCPU host a spinning source measures the
// scheduler, not the worker.
const ringBackoff = 100 * time.Microsecond

// slicesPerPhase is how many equal slices (by packets) the measured
// part of a classify phase is cut into, each timed on its own, so that
// the host's slow stretches can be seen and the quiet figures taken over
// the rest; see quietSlices in metrics.go.
const slicesPerPhase = 32

// sampleEvery and sampleBursts bound the in-flight decisions kept for
// checking after the phase: one burst in 64, at most 64 bursts.
const (
	sampleEvery  = 64
	sampleBursts = 64
)

// sliceStat is one slice of a classify phase: an equal share of the
// measured packets, timed on its own.
type sliceStat struct {
	Packets int
	Ns      int64
	// BurstNs are the full-burst service times that ended in the slice.
	BurstNs []int64
}

func (s sliceStat) mpps() float64 { return ratio(float64(s.Packets), float64(s.Ns)) * 1e3 }

// classifyResult is what one closed-loop classify phase measured.
type classifyResult struct {
	// Slices partition the measured part.
	Slices []sliceStat

	Offered    int
	Classified int
	// HitRate, FullBurstShare and the rest cover the measured part
	// only (after warm-up).
	HitRate        float64
	FullBurstShare float64
	Starved        int
	RetriesPerMpkt float64
	InlineNs       []int64
	UpdateErrs     int

	// sampled are in-flight bursts kept for checking afterwards.
	sampledHdrs []rules.Header
	sampledRes  []ingress.Result
}

// sinkState is what the Sink hook keeps. Everything but done is
// touched only by the worker goroutine until Stop has returned.
type sinkState struct {
	warm, total int
	classified  int
	done        atomic.Int64

	prev     time.Time
	prevFull bool
	samples  []int64
	starved  int
	bursts   int
	full     int

	start      time.Time
	startCount int
	eng        *ingress.Engine
	atStart    ingress.Stats
	// marks[k] is where slice k ends: taken at the first burst that
	// completes at or past the slice's share of the measured packets.
	marks    []sliceMark
	nextEdge int

	keepSamples bool
	sampledHdrs []rules.Header
	sampledRes  []ingress.Result
}

// sliceMark is the end of one slice as the sink saw it.
type sliceMark struct {
	at         time.Time
	classified int
	samples    int
}

// sink takes one time.Now() per burst. The interval between two
// consecutive full-burst completions is the second burst's service
// time: the worker went straight from one to the next. An interval
// that ends in or follows a short burst includes idle time, so it is
// discarded and counted.
func (s *sinkState) sink(_ int, hs []rules.Header, res []ingress.Result) {
	now := time.Now()
	full := len(hs) == burstSize
	if !s.start.IsZero() {
		s.bursts++
		if full {
			s.full++
		}
		if full && s.prevFull {
			s.samples = append(s.samples, now.Sub(s.prev).Nanoseconds())
		} else {
			s.starved++
		}
		if s.keepSamples && s.bursts%sampleEvery == 0 && len(s.sampledHdrs) < sampleBursts*burstSize {
			s.sampledHdrs = append(s.sampledHdrs, hs...)
			s.sampledRes = append(s.sampledRes, res...)
		}
	}
	s.classified += len(hs)
	if s.start.IsZero() && s.classified >= s.warm {
		s.start, s.startCount = now, s.classified
		s.atStart = s.eng.Snapshot()
		s.nextEdge = s.warm + (s.total-s.warm)/slicesPerPhase
	} else if !s.start.IsZero() && s.classified >= s.nextEdge && len(s.marks) < slicesPerPhase {
		s.marks = append(s.marks, sliceMark{now, s.classified, len(s.samples)})
		s.nextEdge = s.warm + (s.total-s.warm)*(len(s.marks)+1)/slicesPerPhase
	}
	s.prev, s.prevFull = now, full
	s.done.Store(int64(s.classified))
}

// observers is the set catcam-serve attaches by default, at the
// sampling rates the observer budget is stated for.
type observers struct {
	reg    *telemetry.Registry
	tracer *trace.Tracer
	stop   chan struct{}
	swept  chan struct{}
}

// attachObservers wires a telemetry registry, an auditor sampling one
// lookup in 64, and a 1 s state-observatory sweep onto st, and returns
// the tracer (one burst in 1024) for the engine.
func attachObservers(st *stack) *observers {
	o := &observers{reg: telemetry.NewRegistry(), tracer: trace.NewTracer(256),
		stop: make(chan struct{}), swept: make(chan struct{})}
	o.tracer.SetSampleEvery(1024)
	ring := telemetry.NewEventRing(1024)
	aud := flightrec.NewAuditor(o.reg, ring, 256, nil)
	aud.SetLookupSampleEvery(64)
	var src stateobs.Source
	if st.pipeline != nil {
		st.pipeline.AttachTelemetry(o.reg, ring, nil)
		st.pipeline.AttachAuditors(func(int) *flightrec.Auditor { return aud })
		src = st.pipeline
	} else {
		st.devices[0].AttachTelemetry(o.reg, ring, nil)
		st.devices[0].AttachAuditor(aud)
		src = st.devices[0]
	}
	obs := stateobs.New(src, stateobs.Config{})
	obs.AttachTelemetry(o.reg, nil)
	go func() {
		defer close(o.swept)
		obs.Run(time.Second, o.stop)
	}()
	return o
}

// detach stops the sweep goroutine and waits for it.
func (o *observers) detach() {
	close(o.stop)
	<-o.swept
}

// runClassify is step 2 of a round: a lossless closed loop of one
// source (this goroutine) and one worker over f's stack, warm packets
// unmeasured then measured packets timed, with nothing attached unless
// obs is set. Updates, on a workload that has them, are issued inline
// on a packet-count schedule, so the same op lands at the same packet
// index in every run.
func runClassify(f *fixture, st *stack, warm, measured int, obs *observers) (classifyResult, *ingress.Engine) {
	total := warm + measured
	s := &sinkState{warm: warm, total: total,
		samples:     make([]int64, 0, measured/burstSize+1),
		marks:       make([]sliceMark, 0, slicesPerPhase),
		keepSamples: f.w.ChurnEvery == 0 && obs == nil,
	}
	cfg := ingress.Config{Workers: 1, RingSize: ringSize, Burst: burstSize,
		FlowCacheSize: cacheSize, Backend: st.backend, Sink: s.sink}
	if obs != nil {
		cfg.Tracer = obs.tracer
	}
	eng := ingress.New(cfg)
	if obs != nil {
		eng.AttachTelemetry(obs.reg, nil)
	}
	s.eng = eng
	res := classifyResult{Offered: total, InlineNs: make([]int64, 0, f.w.inlineOps(total))}

	eng.Start()
	replay(eng, f, st, total, &res)
	for s.done.Load() < int64(total) {
		time.Sleep(ringBackoff)
	}
	final := eng.Stop()

	res.Classified = s.classified
	n := float64(s.classified - s.startCount)
	prev := sliceMark{at: s.start, classified: s.startCount}
	for _, m := range s.marks {
		res.Slices = append(res.Slices, sliceStat{
			Packets: m.classified - prev.classified,
			Ns:      m.at.Sub(prev.at).Nanoseconds(),
			BurstNs: s.samples[prev.samples:m.samples],
		})
		prev = m
	}
	res.HitRate = ratio(float64(final.CacheHits-s.atStart.CacheHits), float64(final.Packets-s.atStart.Packets))
	res.FullBurstShare = ratio(float64(s.full), float64(s.bursts))
	res.Starved = s.starved
	res.RetriesPerMpkt = ratio(float64(final.Drops-s.atStart.Drops), n/1e6)
	res.sampledHdrs, res.sampledRes = s.sampledHdrs, s.sampledRes
	return res, eng
}

// replay is the traffic source: it loops over the recorded trace,
// pushes every packet until the ring takes it, and issues the
// workload's update bursts between packets.
//
//catcam:ring-producer
func replay(eng *ingress.Engine, f *fixture, st *stack, total int, res *classifyResult) {
	every := f.w.ChurnEvery
	pos := 0
	for sent := 0; sent < total; sent++ {
		if every != 0 && sent != 0 && sent%every == 0 {
			for i := 0; i < churnOps; i++ {
				t := time.Now()
				err := st.applyNext(f.updates)
				res.InlineNs = append(res.InlineNs, time.Since(t).Nanoseconds())
				if err != nil {
					res.UpdateErrs++
				}
			}
		}
		h := f.trace[pos]
		if pos++; pos == len(f.trace) {
			pos = 0
		}
		for !eng.Dispatch(h) {
			time.Sleep(ringBackoff)
		}
	}
}
