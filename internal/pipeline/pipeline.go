// Package pipeline models CATCAM's request path (§VI): a task scheduler
// with a FIFO request buffer feeding the three-stage lookup pipeline
// (entry matching → global priority decision → local priority decision)
// with atomic update requests interspersed.
//
// The functional work is delegated to a core.Device; this package adds
// the *timing* structure: lookups issue one per cycle and retire three
// cycles later, so sustained throughput is one lookup per cycle; an
// update occupies the array ports for its cycle class (3/5/1 cycles)
// and drains the in-flight lookups first, so rule alterations are
// atomic with respect to searches — a lookup observes either the table
// before an update or after it, never a half-written state.
package pipeline

import (
	"errors"
	"fmt"

	"catcam/internal/core"
	"catcam/internal/rules"
)

// ErrQueueFull is returned when the request FIFO is at capacity.
var ErrQueueFull = errors.New("pipeline: request queue full")

// Kind tags a request.
type Kind int

// Request kinds.
const (
	Lookup Kind = iota
	Insert
	Delete
)

func (k Kind) String() string {
	switch k {
	case Lookup:
		return "lookup"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request is one entry of the FIFO.
type Request struct {
	Kind   Kind
	Header rules.Header // Lookup
	Rule   rules.Rule   // Insert
	RuleID int          // Delete
	Tag    int          // caller-chosen identifier echoed in the response
}

// Response reports a completed request with its timing.
type Response struct {
	Tag        int
	Kind       Kind
	Action     int  // Lookup: winning action
	OK         bool // Lookup: matched; updates: applied
	Err        error
	IssueCycle uint64 // cycle the request entered the array pipeline
	DoneCycle  uint64 // cycle its result was available
}

// Latency returns the request's cycle latency.
func (r Response) Latency() uint64 { return r.DoneCycle - r.IssueCycle }

// Stats aggregates engine activity.
type Stats struct {
	Cycles       uint64 // total cycles simulated
	Lookups      uint64
	Updates      uint64
	StallCycles  uint64 // cycles the issue slot was blocked by an update
	IdleCycles   uint64 // cycles with an empty queue and empty pipeline
	MaxQueueLen  int
	LookupCycles uint64 // cycles in which a lookup issued
}

// Engine couples a device with the FIFO and pipeline timing model.
type Engine struct {
	dev   *core.Device
	depth int
	queue []Request

	cycle uint64
	// inflight holds lookups issued but not yet retired; index 0 is the
	// oldest (stage closest to retirement).
	inflight []Response
	// busyUntil is the first cycle at which the arrays can accept a new
	// request (updates reserve the array ports for their cycle class).
	busyUntil uint64

	stats     Stats
	responses []Response

	// Lookup batching scratch: consecutive lookups at the FIFO head are
	// classified in one batched device call (one lock, no allocation),
	// then their results are issued one per cycle so the timing model is
	// unchanged. Correct because only FIFO-ordered updates mutate the
	// device between those cycles; mutate the device through the FIFO,
	// not directly, while requests are queued.
	hdrBatch  []rules.Header
	results   []core.LookupResult
	batchNext int
}

// lookupLatency is the pipeline depth: entry match, global decision,
// local decision.
const lookupLatency = 3

// New builds an engine over dev with the given FIFO depth.
func New(dev *core.Device, fifoDepth int) *Engine {
	if fifoDepth <= 0 {
		panic(fmt.Sprintf("pipeline: invalid FIFO depth %d", fifoDepth))
	}
	return &Engine{dev: dev, depth: fifoDepth}
}

// Device returns the underlying device.
func (e *Engine) Device() *core.Device { return e.dev }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Cycle returns the current cycle number.
func (e *Engine) Cycle() uint64 { return e.cycle }

// QueueLen returns the number of queued (not yet issued) requests.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Enqueue appends a request to the FIFO.
func (e *Engine) Enqueue(r Request) error {
	if len(e.queue) >= e.depth {
		return ErrQueueFull
	}
	e.queue = append(e.queue, r)
	if len(e.queue) > e.stats.MaxQueueLen {
		e.stats.MaxQueueLen = len(e.queue)
	}
	return nil
}

// Tick advances one clock cycle: retire, then issue.
//
//catcam:hotpath
func (e *Engine) Tick() {
	e.cycle++
	e.stats.Cycles++

	// Retire lookups whose results are ready this cycle.
	for len(e.inflight) > 0 && e.inflight[0].DoneCycle <= e.cycle {
		e.responses = append(e.responses, e.inflight[0])
		e.inflight = e.inflight[1:]
	}

	if len(e.queue) == 0 {
		if len(e.inflight) == 0 {
			e.stats.IdleCycles++
		}
		return
	}
	if e.cycle < e.busyUntil {
		e.stats.StallCycles++
		return
	}

	req := e.queue[0]
	switch req.Kind {
	case Lookup:
		e.queue = e.queue[1:]
		if e.batchNext >= len(e.results) {
			// Refill: classify the whole run of consecutive lookups at
			// the FIFO head in one batched device call.
			e.hdrBatch = e.hdrBatch[:0]
			e.hdrBatch = append(e.hdrBatch, req.Header)
			for _, r := range e.queue {
				if r.Kind != Lookup {
					break
				}
				e.hdrBatch = append(e.hdrBatch, r.Header)
			}
			e.results = e.dev.LookupHeaderBatch(e.hdrBatch, e.results[:0])
			e.batchNext = 0
		}
		res := e.results[e.batchNext]
		e.batchNext++
		e.inflight = append(e.inflight, Response{
			Tag: req.Tag, Kind: Lookup, Action: res.Entry.Action, OK: res.OK,
			IssueCycle: e.cycle, DoneCycle: e.cycle + lookupLatency,
		})
		e.stats.Lookups++
		e.stats.LookupCycles++
	case Insert, Delete:
		// Updates are atomic: wait until in-flight lookups drain so no
		// search straddles the alteration, then reserve the arrays for
		// the update's cycle class.
		if len(e.inflight) > 0 {
			e.stats.StallCycles++
			return
		}
		e.queue = e.queue[1:]
		resp := Response{Tag: req.Tag, Kind: req.Kind, IssueCycle: e.cycle}
		var cycles uint64
		if req.Kind == Insert {
			res, err := e.dev.InsertRule(req.Rule) //catcam:allow alloc "update control path; alteration cost is accounted in modeled cycles, not allocations"
			resp.Err, resp.OK = err, err == nil
			cycles = res.Cycles
		} else {
			res, err := e.dev.DeleteRule(req.RuleID) //catcam:allow alloc "update control path; alteration cost is accounted in modeled cycles, not allocations"
			resp.Err, resp.OK = err, err == nil
			cycles = res.Cycles
		}
		if cycles == 0 {
			cycles = 1
		}
		resp.DoneCycle = e.cycle + cycles
		e.busyUntil = e.cycle + cycles
		e.responses = append(e.responses, resp)
		e.stats.Updates++
	}
}

// Drain runs the clock until the queue and pipeline are empty, and
// returns all responses accumulated so far (in retirement order for
// lookups, issue order for updates).
//
//catcam:hotpath
func (e *Engine) Drain() []Response {
	for len(e.queue) > 0 || len(e.inflight) > 0 || e.cycle < e.busyUntil {
		e.Tick()
	}
	out := e.responses
	e.responses = nil
	return out
}

// Run enqueues all requests (ticking whenever the FIFO is full, as the
// scheduler would backpressure) and drains.
func (e *Engine) Run(reqs []Request) ([]Response, error) {
	for _, r := range reqs {
		for {
			err := e.Enqueue(r)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				return nil, err
			}
			e.Tick()
		}
	}
	return e.Drain(), nil
}

// Throughput returns completed requests per cycle so far.
func (e *Engine) Throughput() float64 {
	if e.stats.Cycles == 0 {
		return 0
	}
	return float64(e.stats.Lookups+e.stats.Updates) / float64(e.stats.Cycles)
}
