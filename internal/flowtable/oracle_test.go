package flowtable

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/core"
	"catcam/internal/oracle"
	"catcam/internal/rules"
)

// TestPipelineChurnVsClassify is the pipeline's window oracle. For each
// FuzzDeviceVsLinear seed stream, a writer replays the stream into
// table 1 of a two-table pipeline and into oracle.Mirror. Table 0 sends
// four of the five probe sources on with Goto(1) rules and the fifth
// with its Continue miss; table 1 holds each rule as Terminal(its
// action) and drops on a miss. A pipeline has no modify, so a modify
// runs as a Remove, then an Install. After each of those the writer
// records the mirror's answers for oracle.Probes() in an oracle.Window
// at the epoch the update published, and classifies the probes itself
// at that one epoch. Three readers ClassifyBatch the probes,
// bracketing each batch with p.Epoch(): every answer must be the
// reference at some epoch of that window, a Drop counting as no match.
// An install that lets a reader match its entry before the entry's
// instruction is visible fails here. Run with -race at -cpu 1,2,4.
func TestPipelineChurnVsClassify(t *testing.T) {
	seeds, err := oracle.Seeds("../core/testdata/fuzz/FuzzDeviceVsLinear")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) { pipelineChurn(t, oracle.Decode(data)) })
	}
}

// churnRounds is how many times pipelineChurn replays its stream.
const churnRounds = 4

// pipelineAnswers converts pipeline verdicts to the oracle's answers.
func pipelineAnswers(acts []int) []oracle.Answer {
	got := make([]oracle.Answer, len(acts))
	for i, a := range acts {
		if a != Drop {
			got[i] = oracle.Answer{Action: a, Matched: true}
		}
	}
	return got
}

func pipelineChurn(t *testing.T, ops []oracle.Op) {
	cfg := core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160}
	p, err := NewPipeline([]TableConfig{
		{ID: 0, Device: cfg, Miss: MissPolicy{Continue: true}},
		{ID: 1, Device: cfg, Miss: MissPolicy{MissAction: Drop}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []uint32{0x0A000000, 0x0A010000, 0x0A020000, 0x0A030000} {
		mustInstall(t, p, 0, FlowRule{Rule: srcRule(i, 10, src, 16), Instruction: Goto(1)})
	}
	probes := oracle.Probes()
	m := oracle.NewMirror()
	w := oracle.NewWindow(m.Ref, probes, p.Epoch(), churnRounds*2*len(ops)+1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var checked, raced atomic.Uint64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acts []int
			for !stop.Load() {
				before := p.Epoch()
				acts = p.ClassifyBatch(nil, probes, acts[:0])
				after := p.Epoch()
				if err := w.Check(probes, pipelineAnswers(acts), before, after); err != nil {
					t.Error(err)
					return
				}
				checked.Add(1)
				if after != before {
					raced.Add(1)
				}
				runtime.Gosched() // on one P, a batch per turn, not a time slice
			}
		}()
	}

	// update runs one insert or delete on table 1, mirrors it, records
	// the epoch it published and checks the probes at that epoch.
	update := func(kind oracle.Kind, r rules.Rule) error {
		var err error
		if kind == oracle.Delete {
			_, err = p.Remove(1, r.ID)
		} else {
			_, err = p.Install(1, FlowRule{Rule: r, Instruction: Terminal(r.Action)})
		}
		if err != nil && !errors.Is(err, core.ErrFull) && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		if err := m.Apply(kind, r, err); err != nil {
			return err
		}
		e := p.Epoch()
		if err := w.Record(e); err != nil {
			return err
		}
		return w.Check(probes, pipelineAnswers(p.ClassifyBatch(nil, probes, nil)), e, e)
	}
loop:
	for round := 0; round < churnRounds; round++ {
		for i, o := range ops {
			if o.Kind == oracle.Lookup {
				continue
			}
			kinds := []oracle.Kind{m.Kind(o)}
			if kinds[0] == oracle.Modify {
				kinds = []oracle.Kind{oracle.Delete, oracle.Insert}
			}
			for _, kind := range kinds {
				if err := update(kind, o.Rule); err != nil {
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
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	t.Logf("readers: %d batches checked, %d raced an update, over %d epochs", checked.Load(), raced.Load(), w.Recorded())
}
