package ingress

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// windowRefs is the window oracle's reference: swclass.Linear's answer
// for each header of a fixed set, one row per published epoch. The one
// goroutine that publishes mirrors each update into ref and records the
// row of the epoch it published; any goroutine checks answers against
// the rows. The rows are allocated up front and row e is written before
// done passes it, so a checker that waits for done reads only rows the
// writer has finished with, and the only synchronization is the
// writer's store and the checkers' loads.
type windowRefs struct {
	hs   []rules.Header
	col  map[rules.Header]int // read-only after newWindowRefs
	ref  *swclass.Linear
	base uint64 // the epoch of rows[0]
	rows [][]Result
	done atomic.Uint64 // rows[:done] are written
	quit atomic.Bool   // the writer stopped; rows past done never come
}

func newWindowRefs(hs []rules.Header, base uint64, epochs int) *windowRefs {
	w := &windowRefs{hs: hs, col: make(map[rules.Header]int, len(hs)), ref: swclass.NewLinear(),
		base: base, rows: make([][]Result, epochs)}
	for i, h := range hs {
		w.col[h] = i
	}
	return w
}

// record writes the row of epoch from ref. The writer records every
// epoch it publishes, in order.
func (w *windowRefs) record(epoch uint64) error {
	i := epoch - w.base
	if i != w.done.Load() || i >= uint64(len(w.rows)) {
		return fmt.Errorf("recording epoch %d: %d rows of %d written from epoch %d", epoch, w.done.Load(), len(w.rows), w.base)
	}
	row := make([]Result, len(w.hs))
	for j, h := range w.hs {
		action, ok, _ := w.ref.Lookup(h)
		row[j] = Result{Action: int32(action), Matched: ok}
	}
	w.rows[i] = row
	w.done.Store(i + 1)
	return nil
}

// check returns an error naming the first of got, the answers for hs,
// that is the reference at no epoch of [before, after]. It waits for
// the writer to record after's row.
func (w *windowRefs) check(hs []rules.Header, got []Result, before, after uint64) error {
	for w.done.Load() <= after-w.base {
		if w.quit.Load() && w.done.Load() <= after-w.base {
			return fmt.Errorf("the writer stopped before recording epoch %d", after)
		}
		runtime.Gosched()
	}
	for k, h := range hs {
		j, in := w.col[h]
		if !in {
			return fmt.Errorf("header %+v is not in the reference set", h)
		}
		found := false
		for e := before; e <= after && !found; e++ {
			found = w.rows[e-w.base][j] == got[k]
		}
		if !found {
			return fmt.Errorf("packet %d (%+v) = %+v, the reference at no epoch of [%d, %d]: %+v … %+v",
				k, h, got[k], before, after, w.rows[before-w.base][j], w.rows[after-w.base][j])
		}
	}
	return nil
}

// TestOpstreamCopy holds opstream_test.go to the file it copies: the
// op-stream format has one definition, in internal/core, and this
// package replays core's corpus with exactly that decoder.
func TestOpstreamCopy(t *testing.T) {
	src, err := os.ReadFile("../core/opstream_test.go")
	if err != nil {
		t.Fatal(err)
	}
	own, err := os.ReadFile("opstream_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(string(src), "package core\n", "package ingress\n", 1); string(own) != want {
		t.Fatal("opstream_test.go differs from ../core/opstream_test.go beyond the package clause: copy core's over it")
	}
}

// TestFlowCacheChurnVsClassify is the flow cache's window oracle. For
// each FuzzDeviceVsLinear seed stream, a writer replays the stream into
// a 16×16 device and into swclass.Linear and, after every update,
// records Linear's answers for streamProbes() keyed by the epoch the
// update published (failed updates publish too). Two readers push the
// probes through engines of their own over that device, bracketing each
// burst with dev.Epoch() before and after: every answer — a hit, a
// revalidated hit or a miss — must be the reference at some epoch of
// that window. The writer also pushes the probes through an engine of
// its own after every update, where the window is the one epoch it just
// published, so a revalidation that keeps a changed answer fails
// whatever the schedule. Run with -race at -cpu 1,2,4.
func TestFlowCacheChurnVsClassify(t *testing.T) {
	for name, data := range streamSeeds(t, "../core/testdata/fuzz/FuzzDeviceVsLinear") {
		t.Run(name, func(t *testing.T) { churnVsClassify(t, decodeStream(data)) })
	}
}

// churnRounds is how many times churnVsClassify replays its stream.
const churnRounds = 4

func churnVsClassify(t *testing.T, ops []streamOp) {
	probes := streamProbes()
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 16, KeyWidth: 160})
	newEngine := func() *Engine {
		return New(Config{Workers: 1, Burst: len(probes), FlowCacheSize: 4 * len(probes), Backend: NewLookupBackend(d)})
	}
	refs := newWindowRefs(probes, d.Epoch(), churnRounds*len(ops)+1)
	if err := refs.record(d.Epoch()); err != nil {
		t.Fatal(err)
	}

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
				if err := refs.check(probes, got, before, after); err != nil {
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
	live := map[int]bool{}
	// apply runs one op on the device and mirrors what the device did;
	// a lookup publishes nothing and reports false.
	apply := func(o streamOp) (bool, error) {
		kind, r := o.kind, o.rule
		isLive := live[r.ID]
		if kind == opInsert && isLive {
			kind = opModify
		}
		var err error
		switch kind {
		case opInsert:
			_, err = d.InsertRule(r)
		case opDelete:
			_, err = d.DeleteRule(r.ID)
		case opModify:
			_, err = d.ModifyRule(r.ID, r)
		default:
			return false, nil
		}
		if err != nil && !errors.Is(err, core.ErrFull) && !errors.Is(err, core.ErrNotFound) {
			return true, err
		}
		// A delete or modify of a live rule removes it, even when the
		// modify's insert then fails.
		if kind != opInsert && isLive {
			delete(live, r.ID)
			if err := refs.ref.Delete(r.ID); err != nil {
				return true, err
			}
		}
		if kind != opDelete && err == nil {
			live[r.ID] = true
			return true, refs.ref.Insert(r)
		}
		return true, nil
	}
	// The stream runs churnRounds times over, so the readers race more
	// than one pass of it.
loop:
	for round := 0; round < churnRounds; round++ {
		for i, o := range ops {
			published, err := apply(o)
			if err != nil {
				t.Errorf("round %d op %d: %v", round, i, err)
				break loop
			}
			if !published {
				continue
			}
			e := d.Epoch()
			if err := refs.record(e); err != nil {
				t.Errorf("round %d op %d: %v", round, i, err)
				break loop
			}
			if err := refs.check(probes, own.ProcessSync(0, probes), e, e); err != nil {
				t.Errorf("round %d op %d (kind %d, rule %d): %v", round, i, o.kind, o.rule.ID, err)
				break loop
			}
			runtime.Gosched() // let the readers in, even on one P
		}
	}
	refs.quit.Store(true)
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
		s.CacheHits, s.StaleMisses, refs.done.Load(), checked.Load(), raced.Load())
}
