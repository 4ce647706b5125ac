package telemetry

import "fmt"

// EventKind tags a structured trace event.
type EventKind uint8

// Event kinds emitted by the instrumented layers.
const (
	// EvInsert: a rule insert completed (all expansion entries).
	EvInsert EventKind = iota
	// EvDelete: a rule delete completed.
	EvDelete
	// EvModify: a modify (delete+insert) completed.
	EvModify
	// EvRealloc: an insert evicted a subtable's maximum into a
	// neighbor (the paper's 5-cycle class).
	EvRealloc
	// EvFreshSubtable: a subtable was assigned at runtime.
	EvFreshSubtable
	// EvChain: a chained reallocation cascaded past one eviction
	// (ablation mode only — in the paper's design this never fires).
	EvChain
	// EvClassify: a flowtable classification completed.
	EvClassify
	// EvRebalance: a cluster rebalance pass migrated rules between
	// shards (see internal/cluster).
	EvRebalance
	// EvViolation: the flight-recorder auditor detected an invariant
	// violation (Note carries the invariant and detail).
	EvViolation
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvInsert:
		return "insert"
	case EvDelete:
		return "delete"
	case EvModify:
		return "modify"
	case EvRealloc:
		return "realloc"
	case EvFreshSubtable:
		return "fresh_subtable"
	case EvChain:
		return "chain"
	case EvClassify:
		return "classify"
	case EvRebalance:
		return "rebalance"
	case EvViolation:
		return "violation"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalText renders the kind symbolically in JSON snapshots.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a symbolic kind name.
func (k *EventKind) UnmarshalText(b []byte) error {
	for c := EvInsert; c <= EvViolation; c++ {
		if c.String() == string(b) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", b)
}

// Event is one structured trace record. Field meaning varies by kind:
// Subtable is the subtable chosen/assigned (-1 when not applicable),
// Table the flowtable ID (-1 outside a flowtable), Depth the
// eviction-chain length or goto-chain depth, Cycles the operation's
// cycle cost.
type Event struct {
	Seq      uint64    `json:"seq"`
	Kind     EventKind `json:"kind"`
	Table    int       `json:"table"`
	Subtable int       `json:"subtable"`
	RuleID   int       `json:"rule_id"`
	Cycles   uint64    `json:"cycles"`
	Depth    int       `json:"depth"`
	// Note carries kind-specific free text (violation details); empty
	// for the high-rate update/classify kinds so Emit stays cheap.
	Note string `json:"note,omitempty"`
}

// EventRing is the bounded ring of trace events: a Ring whose records
// are Events stamped with their emission sequence. All methods are
// nil-receiver safe, so an unattached layer emits into nothing.
type EventRing struct {
	ring *Ring[Event]
}

// NewEventRing builds a ring holding up to capacity events.
func NewEventRing(capacity int) *EventRing {
	return &EventRing{ring: NewRing(capacity, func(e *Event) *uint64 { return &e.Seq })}
}

// Emit records an event, overwriting the oldest when full. The ring
// assigns Seq (1-based). Nil-receiver safe.
func (r *EventRing) Emit(e Event) {
	if r == nil {
		return
	}
	r.ring.Publish(&e)
}

// Cap returns the ring capacity.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.Cap()
}

// Total returns the number of events ever emitted (including
// overwritten ones).
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Total()
}

// Snapshot returns copies of the retained events oldest-first (see
// Ring.Each for what concurrent emitters can trim).
func (r *EventRing) Snapshot() []Event {
	if r.Total() == 0 {
		return nil // nothing ever emitted: the handler serves null, not []
	}
	out := []Event{}
	r.ring.Each(func(e *Event) { out = append(out, *e) })
	return out
}

// Reset drops all retained events. Seq keeps counting from where it
// was so readers never see sequence numbers go backwards.
func (r *EventRing) Reset() {
	if r == nil {
		return
	}
	r.ring.Reset()
}
