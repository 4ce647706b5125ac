package ingress

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/oracle"
	"catcam/internal/rules"
)

// answers converts engine results to the oracle's (action, matched);
// a no-match answer carries no action.
func answers(rs []Result) []oracle.Answer {
	got := make([]oracle.Answer, len(rs))
	for i, r := range rs {
		if r.Matched {
			got[i] = oracle.Answer{Action: int(r.Action), Matched: true}
		}
	}
	return got
}

// TestFlowCacheChurnVsClassify is the flow cache's window oracle, over
// the revalidating device backend and over a two-table pipeline, whose
// stale entries flush. For each FuzzDeviceVsLinear seed stream, a
// writer replays the stream into a 16×16 device, or into table 1 of
// the pipeline (table 0 sends every probe on to it), and into
// oracle.Mirror and, after every update, records the mirror's answers
// for oracle.Probes() in an oracle.Window at the epoch the update
// published (failed updates publish too). The pipeline has no modify,
// so there a modify runs as a remove, then an install, each recorded
// at its own epoch. Two readers push the probes through engines of
// their own over that backend, bracketing each burst with its Epoch()
// before and after: every answer — a hit, a revalidated hit or a miss —
// must be the reference at some epoch of that window. The writer also
// pushes the probes through an engine of its own after every update,
// where the window is the one epoch it just published, so a
// revalidation that keeps a changed answer fails whatever the
// schedule. Run with -race at -cpu 1,2,4.
func TestFlowCacheChurnVsClassify(t *testing.T) {
	seeds, err := oracle.Seeds("../core/testdata/fuzz/FuzzDeviceVsLinear")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		ops := oracle.Decode(data)
		t.Run(name, func(t *testing.T) {
			t.Run("device", func(t *testing.T) { churnVsClassify(t, ops, deviceTarget()) })
			t.Run("pipeline", func(t *testing.T) { churnVsClassify(t, ops, pipelineTarget(t)) })
		})
	}
}

// churnRounds is how many times churnVsClassify replays its stream.
const churnRounds = 4

// churnCfg is the device behind every churnTarget table.
var churnCfg = core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160}

// churnTarget is a backend churnVsClassify replays into.
type churnTarget struct {
	backend Backend
	// update runs one update of kind on the backend's rules.
	update func(kind oracle.Kind, r rules.Rule) error
	// split runs a modify as a delete, then an insert, for a target
	// whose update has no modify.
	split bool
	// revalidates is set when the flow caches revalidate across the
	// backend's epochs, so the writer's engine must hit.
	revalidates bool
}

func deviceTarget() churnTarget {
	d := core.NewDevice(churnCfg)
	return churnTarget{
		backend: NewLookupBackend(d),
		update: func(kind oracle.Kind, r rules.Rule) error {
			_, err := oracle.Run[core.UpdateResult](d, kind, r)
			return err
		},
		revalidates: true,
	}
}

// pipelineTarget is a two-table pipeline: table 0 sends four of the
// five probe sources on to table 1 with goto rules and the fifth with
// its continue miss, and table 1 holds the replayed rules as terminal
// instructions and drops on a miss.
func pipelineTarget(t *testing.T) churnTarget {
	p, err := flowtable.NewPipeline([]flowtable.TableConfig{
		{ID: 0, Device: churnCfg, Miss: flowtable.MissPolicy{Continue: true}},
		{ID: 1, Device: churnCfg, Miss: flowtable.MissPolicy{MissAction: flowtable.Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []uint32{0x0A000000, 0x0A010000, 0x0A020000, 0x0A030000} {
		r := rules.Rule{ID: i, Priority: 10, SrcIP: rules.Prefix{Addr: src, Len: 16},
			SrcPort: rules.FullPortRange(), DstPort: rules.FullPortRange(), ProtoWildcard: true}
		if _, err := p.Install(0, flowtable.FlowRule{Rule: r, Instruction: flowtable.Goto(1)}); err != nil {
			t.Fatal(err)
		}
	}
	return churnTarget{
		backend: NewPipelineBackend(p),
		update: func(kind oracle.Kind, r rules.Rule) error {
			if kind == oracle.Delete {
				_, err := p.Remove(1, r.ID)
				return err
			}
			_, err := p.Install(1, flowtable.FlowRule{Rule: r, Instruction: flowtable.Terminal(r.Action)})
			return err
		},
		split: true,
	}
}

func churnVsClassify(t *testing.T, ops []oracle.Op, tgt churnTarget) {
	probes := oracle.Probes()
	newEngine := func() *Engine {
		return New(Config{Workers: 1, Burst: len(probes), FlowCacheSize: 4 * len(probes), Backend: tgt.backend})
	}
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, probes, tgt.backend.Epoch(), churnRounds*2*len(ops)+1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var checked, raced atomic.Uint64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := newEngine()
			for !stop.Load() {
				before := tgt.backend.Epoch()
				got := eng.ProcessSync(0, probes)
				after := tgt.backend.Epoch()
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
	// apply runs one update, mirrors what it did, records the epoch it
	// published and checks the writer's own burst at that epoch.
	apply := func(kind oracle.Kind, r rules.Rule) error {
		err := tgt.update(kind, r)
		if err != nil && !errors.Is(err, core.ErrFull) && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		if err := m.Apply(kind, r, err); err != nil {
			return err
		}
		e := tgt.backend.Epoch()
		if err := w.Record(e); err != nil {
			return err
		}
		return w.Check(probes, answers(own.ProcessSync(0, probes)), e, e)
	}
	// The stream runs churnRounds times over, so the readers race more
	// than one pass of it.
loop:
	for round := 0; round < churnRounds; round++ {
		for i, o := range ops {
			if o.Kind == oracle.Lookup {
				continue
			}
			kinds := []oracle.Kind{m.Kind(o)}
			if kinds[0] == oracle.Modify && tgt.split {
				kinds = []oracle.Kind{oracle.Delete, oracle.Insert}
			}
			for _, kind := range kinds {
				if err := apply(kind, o.Rule); err != nil {
					t.Errorf("round %d op %d (kind %d, rule %d): %v", round, i, kind, o.Rule.ID, err)
					break loop
				}
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
	if tgt.revalidates && s.CacheHits == 0 {
		t.Fatal("the writer's engine never hit: every burst is at a new epoch, so no answer was revalidated")
	}
	t.Logf("writer: %d hits, %d stale misses over %d epochs; readers: %d bursts checked, %d raced an update",
		s.CacheHits, s.StaleMisses, w.Recorded(), checked.Load(), raced.Load())
}
