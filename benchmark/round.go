package main

import (
	"fmt"
	"runtime"
	"time"

	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/rules"
)

// updateResult is what the idle-traffic update phase measured.
type updateResult struct {
	// LatNs[i] is the host time of op i. Every round issues the same
	// ops against the same table states, so op i of one round is op i
	// of the next.
	LatNs      []int64
	BytesPerOp float64
	Errs       int
}

// runUpdates is step 3 of a round: n ops of the update trace
// back-to-back through the stack's top-level update API, each timed on
// its own, with the allocation counter read around the whole phase.
func runUpdates(f *fixture, st *stack, n int) updateResult {
	res := updateResult{LatNs: make([]int64, n)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range res.LatNs {
		t := time.Now()
		err := st.applyNext(f.updates)
		res.LatNs[i] = time.Since(t).Nanoseconds()
		if err != nil {
			res.Errs++
		}
	}
	runtime.ReadMemStats(&m1)
	res.BytesPerOp = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(n))
	return res
}

// tally counts operations attempted and failed; a round's totals are
// the workload's ops_attempted and ops_failed.
type tally struct {
	Attempted, Failed int
	// Notes says what failed, for the human-readable report.
	Notes []string
}

func (t *tally) add(attempted, failed int, what string) {
	t.Attempted += attempted
	t.Failed += failed
	if failed > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// cyclesConsistent is the paper's per-entry accounting: 3 cycles per
// direct insert, 5 per reallocating insert, 1 per delete.
func cyclesConsistent(s core.Stats) bool {
	return s.UpdateCycles == 3*s.DirectInserts+5*s.ReallocInserts+s.Deletes
}

// probeOps bounds how many of the latest updates a quiescent check
// aims a probe header at.
const probeOps = 1024

// probe returns a header rule r matches: its prefixes' addresses, the
// low end of its port ranges, its protocol.
func probe(r rules.Rule) rules.Header {
	return rules.Header{SrcIP: r.SrcIP.Canonical().Addr, DstIP: r.DstIP.Canonical().Addr,
		SrcPort: r.SrcPort.Lo, DstPort: r.DstPort.Lo, Proto: r.Proto}
}

// quiescentCheck is step 4: with traffic stopped, the first
// checkHeaders trace headers, and one probe header aimed at each of the
// latest probeOps rules an update inserted or deleted, go through the
// stopped engine (cache and slow path both) and must agree with the
// mirror; the structural invariants and the modelled-cycle identity
// must hold.
func quiescentCheck(f *fixture, eng *ingress.Engine, ft fault, t *tally, when string) {
	from := f.mirrored
	t.add(f.st.applied-from, f.syncMirror(ft), when+" mirror updates")
	hs := append([]rules.Header(nil), f.trace[:min(len(f.trace), checkHeaders)]...)
	for _, u := range f.updates[max(from, f.mirrored-probeOps):f.mirrored] {
		hs = append(hs, probe(u.Rule))
	}
	wrong := 0
	for i := 0; i < len(hs); i += burstSize {
		burst := hs[i:min(i+burstSize, len(hs))]
		for j, r := range eng.ProcessSync(0, burst) {
			if !f.mirror.agrees(burst[j], r) {
				wrong++
			}
		}
	}
	t.add(len(hs), wrong, when+" decisions vs swclass.Linear")
	bad := 0
	if err := f.st.check(); err != nil {
		bad++
		t.Notes = append(t.Notes, when+" CheckInvariant: "+err.Error())
	}
	if !cyclesConsistent(f.st.stats()) {
		bad++
	}
	t.add(2, bad, when+" invariants (CheckInvariant, 3/5/1 cycle identity)")
}

// roundResult is one round of one workload: set-up, classify phase,
// update phase, and the checks after each.
type roundResult struct {
	SetupS   float64
	HeapMB   float64
	Classify classifyResult
	Update   updateResult
	Tally    tally
	// ActiveSubtables and Entries are read after the table load.
	ActiveSubtables int
	Entries         int
	CalibMops       float64
}

// sizing is how large the phases of a round are; it depends only on
// --seconds, -scale and the workload, never on the host.
type sizing struct {
	Warm, Measured int
	Traced         int
	TracedReps     int
	TraceLen       int
	UpdateOps      int
}

func (w *workload) sizing(scale float64) sizing {
	scaled := func(n, floor int) int { return max(int(float64(n)*scale), floor) }
	z := sizing{
		Measured:  scaled(w.Packets, 32*burstSize) / burstSize * burstSize,
		Traced:    scaled(w.TracedPackets, 32*burstSize) / burstSize * burstSize,
		TraceLen:  scaled(tracePackets, 2*checkHeaders) / burstSize * burstSize,
		UpdateOps: scaled(updatePhaseOps, 200),
	}
	z.TracedReps = 2 // enough to fold one repetition into another
	if scale >= 1 {
		z.Traced, z.TraceLen, z.UpdateOps = w.TracedPackets, tracePackets, updatePhaseOps
		z.TracedReps = tracedReps
	}
	// The warm-up ends on an update burst and, whatever --seconds, a
	// slice is a whole number of update intervals, so that every slice
	// of the measured part holds the same number of update bursts.
	unit := max(burstSize, w.ChurnEvery)
	if per := slicesPerPhase * unit; z.Measured >= per {
		z.Measured -= z.Measured % per
	}
	z.Warm = z.Measured / 5 / unit * unit
	return z
}

// runRound runs steps 1 to 4 once on a freshly built stack. The
// fixture is returned without its stack and mirror, so that a traced
// run can reuse its rules, trace and update trace. An update-only round
// (classify false) skips step 2's traffic and issues its inline updates
// back to back, untimed, so that its update phase meets the table a
// full round's does.
func runRound(w *workload, seed int64, z sizing, resultsDir string, ft fault, classify bool) (roundResult, *fixture, error) {
	var r roundResult
	f, err := setUp(w, seed, z.Warm+z.Measured, z.TraceLen, z.UpdateOps, resultsDir, ft)
	if err != nil {
		return r, nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	defer func() {
		f.st.close()
		f.st, f.mirror = nil, nil
	}()
	r.SetupS, r.HeapMB = f.setupS, f.heapMB
	r.ActiveSubtables, r.Entries = f.st.activeSubtables(), f.st.entries()
	calib := calibrate()

	var eng *ingress.Engine
	if classify {
		r.Classify, eng = runClassify(f, f.st, z.Warm, z.Measured, nil)
		c := &r.Classify
		r.Tally.add(c.Offered, c.Offered-c.Classified, "packets offered but never classified")
		r.Tally.add(len(c.InlineNs), c.UpdateErrs, "inline updates")
		wrong := 0
		for i, h := range c.sampledHdrs {
			if !f.mirror.agrees(h, c.sampledRes[i]) {
				wrong++
			}
		}
		r.Tally.add(len(c.sampledHdrs), wrong, "in-flight decisions vs swclass.Linear")
	} else {
		eng = ingress.New(ingress.Config{Workers: 1, RingSize: ringSize, Burst: burstSize,
			FlowCacheSize: cacheSize, Backend: f.st.backend})
		inline, errs := w.inlineOps(z.Warm+z.Measured), 0
		for i := 0; i < inline; i++ {
			if f.st.applyNext(f.updates) != nil {
				errs++
			}
		}
		r.Tally.add(inline, errs, "inline updates")
	}
	quiescentCheck(f, eng, ft, &r.Tally, "after classify:")

	r.Update = runUpdates(f, f.st, z.UpdateOps)
	r.Tally.add(len(r.Update.LatNs), r.Update.Errs, "update phase ops")
	quiescentCheck(f, eng, ft, &r.Tally, "after updates:")
	r.CalibMops = (calib + calibrate()) / 2
	return r, f, nil
}
