// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§VII-§VIII). Each driver
// returns typed rows; Format* helpers render them as aligned text.
// cmd/catcam-bench is the thin wrapper over this package that prints
// them and checks the paper's claims against them.
package bench

import (
	"fmt"

	"catcam/internal/classbench"
	"catcam/internal/rules"
)

// Workload bundles a generated ruleset with its update trace and packet
// trace, mirroring the paper's methodology: ClassBench-style rulesets,
// 1K random updates split evenly between insertion and deletion, and
// locality-weighted packet traces.
type Workload struct {
	Family  classbench.Family
	Size    int
	Ruleset *rules.Ruleset
	Trace   []classbench.Update
	Headers []rules.Header
}

// WorkloadOptions tunes workload generation.
type WorkloadOptions struct {
	Updates   int     // update-trace length (default 1000)
	Headers   int     // packet-trace length (default 1000)
	Locality  float64 // packet-trace rule locality (default 0.9)
	Seed      int64   // base seed (family/size folded in)
	FlatPorts bool    // force trivially-expanding port ranges
	// FreshPriorities makes trace reinsertions draw new random
	// priorities (policy churn) instead of reusing the deleted rule's
	// (rule flap). See classbench.UpdateTraceFresh.
	FreshPriorities bool
}

func (o WorkloadOptions) withDefaults() WorkloadOptions {
	if o.Updates == 0 {
		o.Updates = 1000
	}
	if o.Headers == 0 {
		o.Headers = 1000
	}
	if o.Locality == 0 {
		o.Locality = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// NewWorkload generates a deterministic workload for a family and size.
func NewWorkload(f classbench.Family, size int, opts WorkloadOptions) *Workload {
	opts = opts.withDefaults()
	seed := opts.Seed + int64(f)*1_000_003 + int64(size)*7
	rs := classbench.Generate(classbench.Config{Family: f, Size: size, Seed: seed})
	if opts.FlatPorts {
		flattenPorts(rs)
	}
	trace := classbench.UpdateTrace(rs, opts.Updates, seed+1)
	if opts.FreshPriorities {
		trace = classbench.UpdateTraceFresh(rs, opts.Updates, seed+1)
	}
	return &Workload{
		Family:  f,
		Size:    size,
		Ruleset: rs,
		Trace:   trace,
		Headers: classbench.PacketTrace(rs, opts.Headers, opts.Locality, seed+2),
	}
}

// flattenPorts replaces every port range with either an exact port or a
// full wildcard so each rule expands to exactly one TCAM entry — used
// where the paper excludes range-expansion inflation (§VIII-B).
func flattenPorts(rs *rules.Ruleset) {
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if r.SrcPort.Lo != r.SrcPort.Hi && !r.SrcPort.IsFull() {
			r.SrcPort = rules.FullPortRange()
		}
		if r.DstPort.Lo != r.DstPort.Hi && !r.DstPort.IsFull() {
			r.DstPort = rules.FullPortRange()
		}
	}
}

// Entries returns the ruleset's post-expansion entry count.
func (w *Workload) Entries() int {
	n := 0
	for _, r := range w.Ruleset.Rules {
		n += r.ExpansionCount()
	}
	return n
}

// Label names the workload like the paper's tables ("ACL 10K").
func (w *Workload) Label() string {
	if w.Size >= 1000 && w.Size%1000 == 0 {
		return fmt.Sprintf("%s %dK", w.Family, w.Size/1000)
	}
	return fmt.Sprintf("%s %d", w.Family, w.Size)
}
