// Package slo is CATCAM's service-level-objective engine: it turns the
// telemetry substrate's raw counters into burn-rate alerts the way the
// SRE workbook prescribes — multi-window, multi-burn-rate — and drives
// a bounded-window escalation that switches the observability stack
// from sampling to flight-data recording exactly when the data is
// worth capturing.
//
// An Objective is a good/bad event ratio with a target (e.g. 99.9% of
// lookups under the latency threshold). The error *budget* is
// 1-target; the *burn rate* over a window is the fraction of events in
// that window that were bad, divided by the budget — burn 1.0 spends
// the budget exactly at the objective's edge, burn 14.4 exhausts a
// 30-day budget in ~2 days. An objective pages only when BOTH a fast
// window (5m — "is it happening now?") and a slow window (1h — "has it
// been happening long enough to matter?") exceed the threshold, which
// suppresses both one-spike false pages and stale-page tails.
//
// The engine is sampled, not event-driven: Sample() reads each
// objective's cumulative (bad, total) counters and appends a
// timestamped point to a bounded ring; Evaluate() computes windowed
// deltas against that ring. Both take an explicit time so tests drive
// hours of SLO history in microseconds; Start() runs them on a wall
// clock ticker.
package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Objective is one tracked service-level objective.
type Objective struct {
	// Name identifies the objective in /slo and escalation logs.
	Name string
	// Description is surfaced verbatim in the status report.
	Description string
	// Target is the good-event ratio promised (0 < Target < 1), e.g.
	// 0.999. The error budget is 1 - Target.
	Target float64
	// Source reads the cumulative bad and total event counters. Called
	// at sample time only — a handful of atomic loads per interval.
	Source func() (bad, total uint64)
}

// point is one sampled counter reading.
type point struct {
	at         time.Time
	bad, total uint64
}

// objectiveState is an objective plus its sample ring and burn state.
type objectiveState struct {
	obj     Objective
	samples []point
	burning bool
	// trips counts ok->burning transitions.
	trips uint64
}

// Config carries the engine's burn-transition hooks.
type Config struct {
	// OnBurnStart, if set, runs when an objective transitions into
	// burning (called outside the engine lock).
	OnBurnStart func(name string)
	// OnBurnEnd, if set, runs when an objective recovers.
	OnBurnEnd func(name string)
}

// The windows and the burn threshold every objective is judged by.
const (
	// DefaultFastWindow is the "is it happening" window.
	DefaultFastWindow = 5 * time.Minute
	// DefaultSlowWindow is the "does it matter" window.
	DefaultSlowWindow = time.Hour
	// DefaultThreshold is the burn rate both windows must exceed to
	// page: the workbook's 2%-of-monthly-budget-in-an-hour rate.
	DefaultThreshold = 14.4
)

// Engine evaluates a set of objectives against sampled counters.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	objs []*objectiveState
}

// New builds an engine; register objectives with Add.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Add registers an objective.
func (e *Engine) Add(o Objective) {
	if o.Target <= 0 || o.Target >= 1 {
		panic(fmt.Sprintf("slo: objective %q target %v outside (0,1)", o.Name, o.Target))
	}
	if o.Source == nil {
		panic(fmt.Sprintf("slo: objective %q has no source", o.Name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objs = append(e.objs, &objectiveState{obj: o})
}

// Sample reads every objective's counters at the given instant and
// appends the readings to the sample rings, pruning points older than
// the slow window (plus one interval of slack, kept implicitly by
// pruning strictly-older-than-window points relative to now).
func (e *Engine) Sample(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		bad, total := st.obj.Source()
		st.samples = append(st.samples, point{at: now, bad: bad, total: total})
		// Prune: keep one point at or before the slow-window horizon so
		// the slow burn always has a full-window baseline.
		horizon := now.Add(-DefaultSlowWindow)
		cut := 0
		for cut+1 < len(st.samples) && st.samples[cut+1].at.Before(horizon) {
			cut++
		}
		if cut > 0 {
			st.samples = append(st.samples[:0], st.samples[cut:]...)
		}
	}
}

// burn computes one objective's burn rate over the window ending now.
// The baseline is the newest sample at or before the window start
// (falling back to the oldest retained); with fewer than two samples,
// or no events in the window, the burn is zero — an empty window is a
// healthy window.
func (st *objectiveState) burn(window time.Duration, now time.Time) float64 {
	if len(st.samples) < 2 {
		return 0
	}
	start := now.Add(-window)
	base := st.samples[0]
	for _, p := range st.samples[1:] {
		if p.at.After(start) {
			break
		}
		base = p
	}
	latest := st.samples[len(st.samples)-1]
	dTotal := latest.total - base.total
	dBad := latest.bad - base.bad
	if dTotal == 0 {
		return 0
	}
	badFrac := float64(dBad) / float64(dTotal)
	return badFrac / (1 - st.obj.Target)
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	Bad         uint64  `json:"bad"`
	Total       uint64  `json:"total"`
	FastBurn    float64 `json:"fast_burn"`
	SlowBurn    float64 `json:"slow_burn"`
	Burning     bool    `json:"burning"`
	Trips       uint64  `json:"trips"`
}

// Status is the engine's evaluated state (the /slo payload).
type Status struct {
	Healthy       bool              `json:"healthy"`
	Threshold     float64           `json:"threshold"`
	FastWindowSec float64           `json:"fast_window_sec"`
	SlowWindowSec float64           `json:"slow_window_sec"`
	Objectives    []ObjectiveStatus `json:"objectives"`
}

// Evaluate computes burn rates as of now, updates burning states, and
// returns the full status. Burn-transition callbacks run after the
// lock is released.
func (e *Engine) Evaluate(now time.Time) Status {
	e.mu.Lock()
	s := Status{
		Healthy:       true,
		Threshold:     DefaultThreshold,
		FastWindowSec: DefaultFastWindow.Seconds(),
		SlowWindowSec: DefaultSlowWindow.Seconds(),
	}
	var started, ended []string
	for _, st := range e.objs {
		fast := st.burn(DefaultFastWindow, now)
		slow := st.burn(DefaultSlowWindow, now)
		burning := fast >= DefaultThreshold && slow >= DefaultThreshold
		if burning && !st.burning {
			st.trips++
			started = append(started, st.obj.Name)
		}
		if !burning && st.burning {
			ended = append(ended, st.obj.Name)
		}
		st.burning = burning
		if burning {
			s.Healthy = false
		}
		var bad, total uint64
		if n := len(st.samples); n > 0 {
			bad, total = st.samples[n-1].bad, st.samples[n-1].total
		}
		s.Objectives = append(s.Objectives, ObjectiveStatus{
			Name: st.obj.Name, Description: st.obj.Description,
			Target: st.obj.Target, Bad: bad, Total: total,
			FastBurn: fast, SlowBurn: slow, Burning: burning, Trips: st.trips,
		})
	}
	e.mu.Unlock()
	for _, name := range started {
		if e.cfg.OnBurnStart != nil {
			e.cfg.OnBurnStart(name)
		}
	}
	for _, name := range ended {
		if e.cfg.OnBurnEnd != nil {
			e.cfg.OnBurnEnd(name)
		}
	}
	return s
}

// Healthy reports whether no objective is currently burning (as of the
// last Evaluate).
func (e *Engine) Healthy() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		if st.burning {
			return false
		}
	}
	return true
}

// Start samples and evaluates every interval on a wall clock until
// stop is closed. Run it in a goroutine; it returns when stopped.
func (e *Engine) Start(interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			e.Sample(now)
			e.Evaluate(now)
		}
	}
}

// Handler serves the /slo status as JSON, evaluated at request time.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Evaluate(time.Now()))
	})
}
