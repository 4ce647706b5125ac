package oracle

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// Answer is a classify answer as the window compares it: the winning
// action, 0 when no rule matched, and whether one did.
type Answer struct {
	Action  int
	Matched bool
}

// Window holds swclass.Linear's answers for a fixed header set, one row
// per published epoch, and checks answers that raced updates against
// the epochs they could have seen. The one goroutine that publishes
// mirrors each update into Ref and records the epochs it published; any
// goroutine checks. The rows are allocated up front and row e is
// written before done passes it, so a checker that waits for done reads
// only rows the writer has finished with, and the only synchronization
// is the writer's store and the checkers' loads.
type Window struct {
	Ref  *swclass.Linear
	hs   []rules.Header       // the distinct headers, one column each
	col  map[rules.Header]int // read-only after NewWindow
	base uint64               // the epoch of rows[0]
	rows [][]Answer
	done atomic.Uint64 // rows[:done] are written
	quit atomic.Bool   // the writer stopped; rows past done never come
}

// NewWindow returns a window over the distinct headers of hs, with rows
// for epochs base to base+epochs-1, whose writer mirrors into ref. It
// records ref's answers as epoch base's.
func NewWindow(ref *swclass.Linear, hs []rules.Header, base uint64, epochs int) *Window {
	w := &Window{Ref: ref, col: make(map[rules.Header]int, len(hs)), base: base, rows: make([][]Answer, max(epochs, 1))}
	for _, h := range hs {
		if _, dup := w.col[h]; !dup {
			w.col[h] = len(w.hs)
			w.hs = append(w.hs, h)
		}
	}
	w.Record(base) // cannot fail: no row is written and rows[0] exists
	return w
}

// Record writes Ref's answers as the row of epoch and of every earlier
// epoch not yet written: an epoch the writer did not record changed no
// rule (a republish, a stats reset), so its answers are those of the
// epoch recorded after it. Recording the last recorded epoch again
// writes nothing, and fails if Ref's answers changed: an update changed
// a rule without publishing. The writer records in epoch order.
func (w *Window) Record(epoch uint64) error {
	done := w.done.Load()
	if epoch+1 < w.base+done || epoch-w.base >= uint64(len(w.rows)) {
		return fmt.Errorf("recording epoch %d: %d rows of %d written from epoch %d", epoch, done, len(w.rows), w.base)
	}
	row := make([]Answer, len(w.hs))
	for j, h := range w.hs {
		action, ok, _ := w.Ref.Lookup(h)
		row[j] = Answer{action, ok}
	}
	if epoch+1 == w.base+done {
		if !slices.Equal(row, w.rows[done-1]) {
			return fmt.Errorf("the reference changed at epoch %d, recorded already", epoch)
		}
		return nil
	}
	for i := done; i <= epoch-w.base; i++ {
		w.rows[i] = row
	}
	w.done.Store(epoch - w.base + 1)
	return nil
}

// Recorded returns how many epochs have been recorded.
func (w *Window) Recorded() uint64 { return w.done.Load() }

// Close tells the checkers that the writer stopped: a check waiting on
// an epoch not yet recorded fails instead of waiting forever.
func (w *Window) Close() { w.quit.Store(true) }

// Check returns an error naming the first of got, the answers for hs,
// that is the reference at no epoch of [before, after]. It waits for
// the writer to record after.
func (w *Window) Check(hs []rules.Header, got []Answer, before, after uint64) error {
	if before < w.base || after < before || len(got) != len(hs) {
		return fmt.Errorf("%d answers for %d headers over [%d, %d], rows from epoch %d", len(got), len(hs), before, after, w.base)
	}
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
