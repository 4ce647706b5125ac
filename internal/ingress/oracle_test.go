package ingress

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/core"
	"catcam/internal/oracle"
)

// answers converts engine results to the oracle's (action, matched).
func answers(rs []Result) []oracle.Answer {
	got := make([]oracle.Answer, len(rs))
	for i, r := range rs {
		got[i] = oracle.Answer{Action: int(r.Action), Matched: r.Matched}
	}
	return got
}

// TestFlowCacheChurnVsClassify is the flow cache's window oracle. For
// each FuzzDeviceVsLinear seed stream, a writer replays the stream into
// a 16×16 device and into oracle.Mirror and, after every update,
// records the mirror's answers for oracle.Probes() in an oracle.Window
// at the epoch the update published (failed updates publish too). Two
// readers push the probes through engines of their own over that
// device, bracketing each burst with dev.Epoch() before and after:
// every answer — a hit, a revalidated hit or a miss — must be the
// reference at some epoch of that window. The writer also pushes the
// probes through an engine of its own after every update, where the
// window is the one epoch it just published, so a revalidation that
// keeps a changed answer fails whatever the schedule. Run with -race at
// -cpu 1,2,4.
func TestFlowCacheChurnVsClassify(t *testing.T) {
	seeds, err := oracle.Seeds("../core/testdata/fuzz/FuzzDeviceVsLinear")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) { churnVsClassify(t, oracle.Decode(data)) })
	}
}

// churnRounds is how many times churnVsClassify replays its stream.
const churnRounds = 4

func churnVsClassify(t *testing.T, ops []oracle.Op) {
	probes := oracle.Probes()
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	newEngine := func() *Engine {
		return New(Config{Workers: 1, Burst: len(probes), FlowCacheSize: 4 * len(probes), Backend: NewLookupBackend(d)})
	}
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, probes, d.Epoch(), churnRounds*len(ops)+1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var checked, raced atomic.Uint64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := newEngine()
			for !stop.Load() {
				before := d.Epoch()
				got := eng.ProcessSync(0, probes)
				after := d.Epoch()
				if err := w.Check(probes, answers(got), before, after); err != nil {
					t.Error(err)
					return
				}
				checked.Add(1)
				if after != before {
					raced.Add(1)
				}
				runtime.Gosched() // on one P, a burst per turn, not a time slice
			}
		}()
	}

	own := newEngine()
	// apply runs one update on the device and mirrors what it did.
	apply := func(o oracle.Op) error {
		kind, r := m.Kind(o), o.Rule
		_, err := oracle.Run[core.UpdateResult](d, kind, r)
		if err != nil && !errors.Is(err, core.ErrFull) && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		return m.Apply(kind, r, err)
	}
	// The stream runs churnRounds times over, so the readers race more
	// than one pass of it.
loop:
	for round := 0; round < churnRounds; round++ {
		for i, o := range ops {
			if o.Kind == oracle.Lookup {
				continue
			}
			if err := apply(o); err != nil {
				t.Errorf("round %d op %d: %v", round, i, err)
				break loop
			}
			e := d.Epoch()
			if err := w.Record(e); err != nil {
				t.Errorf("round %d op %d: %v", round, i, err)
				break loop
			}
			if err := w.Check(probes, answers(own.ProcessSync(0, probes)), e, e); err != nil {
				t.Errorf("round %d op %d (kind %d, rule %d): %v", round, i, o.Kind, o.Rule.ID, err)
				break loop
			}
			runtime.Gosched() // let the readers in, even on one P
		}
	}
	w.Close()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	s := own.Snapshot()
	if s.CacheHits == 0 {
		t.Fatal("the writer's engine never hit: every burst is at a new epoch, so no answer was revalidated")
	}
	t.Logf("writer: %d hits, %d stale misses over %d epochs; readers: %d bursts checked, %d raced an update",
		s.CacheHits, s.StaleMisses, w.Recorded(), checked.Load(), raced.Load())
}
