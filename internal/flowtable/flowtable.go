// Package flowtable layers OpenFlow-style multi-table semantics on top
// of CATCAM devices — the deployment surface the paper's introduction
// motivates: SDN controllers install fine-grained policies into a
// pipeline of match-action tables, and expect both line-rate lookups
// and immediate rule installation.
//
// Each flow table is backed by one CATCAM engine (one match stage, as
// in a dRMT processor) — either a single device or, for tables whose
// rule count outgrows one device, a sharded cluster behind the same
// Backend interface. A packet enters the first table; the winning
// entry's instruction either emits a final action or forwards the
// packet to a later table (goto-table, strictly increasing as OpenFlow
// requires). A table miss applies the table's miss policy.
//
// A flow rule is stored once: its instruction is packed into the
// action word of the entry its table's backend holds, so an install is
// one insert and a lookup reads the instruction from the same snapshot
// that matched the entry. Because every table is a CATCAM, controller
// updates are O(1) at any pipeline position — the end-to-end property
// the paper argues makes reactive SDN policies viable on hardware.
package flowtable

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/rules"
	"catcam/internal/telemetry"
	tracepkg "catcam/internal/trace"
)

// Backend is the match-stage engine behind one flow table: the
// surface *core.Device and *cluster.Cluster share. Both satisfy it
// unchanged, so a pipeline can mix single-device tables with sharded
// ones, and catcam-serve drives either through it.
type Backend interface {
	InsertRule(rules.Rule) (core.UpdateResult, error)
	DeleteRule(ruleID int) (core.UpdateResult, error)
	LookupHeaderBatchTraced(tr *tracepkg.Trace, hs []rules.Header, dst []core.LookupResult) []core.LookupResult
	// AttachTelemetry's ring is ignored (see telemetry.EventRing).
	AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels)
	AttachTracer(tt *tracepkg.Tracer)
	AttachAuditor(aud *flightrec.Auditor)
	AuditSweep() flightrec.SweepInfo
	Stats() core.Stats
	ResetStats()
	CheckInvariant() error
	// Epoch returns the backend's publication stamp: a monotonic
	// counter that advances on every rule change — a device's snapshot
	// epoch (core.Device.Epoch), a cluster's cut sequence
	// (cluster.Cluster.Epoch). The ingress flow cache compares stamps
	// for equality to invalidate cached decisions. Lock-free on both
	// implementations.
	Epoch() uint64
	// DeriveStructure derives the backend's structural state for the
	// state observatory — lock-free on both implementations (epoch
	// snapshot traversal only; see core.Structure).
	DeriveStructure(dst *core.Structure) *core.Structure
	// OnStatsReset registers an observer to run whenever the backend's
	// statistics are reset, so derived structural state (observatory
	// rings, gauges) never survives a reset.
	OnStatsReset(fn func())
}

var (
	_ Backend = (*core.Device)(nil)
	_ Backend = (*cluster.Cluster)(nil)
)

// Drop is the conventional "no output" action value.
const Drop = -1

// Instruction is what a matched entry does.
type Instruction struct {
	// GotoTable, when >= 0, continues matching at that table ID. The
	// target must be greater than the current table (OpenFlow's
	// forward-only constraint).
	GotoTable int
	// Action is the terminal action when GotoTable < 0.
	Action int
}

// Terminal returns an instruction that outputs the action.
func Terminal(action int) Instruction { return Instruction{GotoTable: -1, Action: action} }

// Goto returns an instruction that jumps to a later table.
func Goto(table int) Instruction { return Instruction{GotoTable: table} }

// FlowRule is a rule plus its instruction.
type FlowRule struct {
	Rule        rules.Rule
	Instruction Instruction
}

// MissPolicy decides what a table does when nothing matches.
type MissPolicy struct {
	// Continue forwards missed packets to the next table in ID order
	// when true; otherwise the packet terminates with MissAction.
	Continue   bool
	MissAction int
}

// TableConfig declares one flow table.
type TableConfig struct {
	ID     int
	Device core.Config
	Miss   MissPolicy
	// Shards, when >= 2, backs this table with a sharded cluster of
	// identical devices instead of a single one.
	Shards int
	// Partition must be cluster.ModeInterval (the zero value);
	// NewPipeline rejects anything else.
	//
	// Deprecated: the cluster has one partition scheme. The field stays
	// only because benchmark/ still sets it, and is deleted with the
	// benchmark-side edits of ROADMAP item 5.
	Partition cluster.Mode
	// FanWorkers must be 0 or 1; NewPipeline rejects anything more.
	//
	// Deprecated: a cluster classifies in the caller's goroutine and has
	// no workers to count. The field stays only because benchmark/ still
	// sets it, and is deleted with the benchmark-side edits of ROADMAP
	// item 5.
	FanWorkers int
}

// Pipeline is an ordered set of flow tables.
//
// The classify paths (Classify and ClassifyBatch) take no lock and are
// safe for concurrent use — each call checks its working set out of a
// sync.Pool, the backing devices classify lock-free, and a hit's
// instruction is the action word of the entry it matched — and may
// also run concurrently with Install/Remove, each of which is one
// backend update. Construction-time wiring (Attach*) still requires a
// quiescent pipeline.
type Pipeline struct {
	// tables is every table in traversal order (ascending ID); a goto
	// word names its target by position here.
	tables []*table
	// structs is the state observatory's reusable per-table derive
	// buffers (see structure.go); a derive takes them, so a concurrent
	// one allocates its own.
	structs atomic.Pointer[[]core.Structure]
	// tel is the attached runtime telemetry; nil until AttachTelemetry.
	tel *pipelineTelemetry
	// scratchPool recycles classifyScratch working sets so concurrent
	// steady-state classification allocates nothing.
	scratchPool sync.Pool
}

// classifyScratch is the reusable working set of Classify/ClassifyBatch.
//
//catcam:scratch
type classifyScratch struct {
	cur     []int // per-packet position in tables; -1 = terminated
	depth   []int // per-packet table visits, for telemetry
	hdrs    []rules.Header
	idxs    []int // packet index behind each batch entry
	results []core.LookupResult
}

type table struct {
	cfg TableConfig
	dev Backend
	// classify counters when telemetry is attached.
	hits, misses *telemetry.Counter
}

// pipelineTelemetry holds the pipeline-level metric instances.
type pipelineTelemetry struct {
	gotoDepth *telemetry.Histogram
	drops     *telemetry.Counter
}

// AttachTelemetry registers classification metrics on reg — per-table
// hit/miss counters and a goto-chain depth histogram — and attaches
// every table's backing device with a {"table": "<id>"} label so
// per-table update histograms land on the same registry. The ring is
// ignored (see telemetry.EventRing).
func (p *Pipeline) AttachTelemetry(reg *telemetry.Registry, _ *telemetry.EventRing, labels telemetry.Labels) {
	if reg == nil {
		p.tel = nil
		for _, t := range p.tables {
			t.hits, t.misses = nil, nil
			t.dev.AttachTelemetry(nil, nil, nil)
		}
		return
	}
	p.tel = &pipelineTelemetry{
		gotoDepth: reg.Histogram("catcam_flowtable_goto_depth",
			"tables visited per classification", telemetry.DefaultDepthBuckets, labels),
		drops: reg.Counter("catcam_flowtable_drops_total",
			"classifications ending in a drop", labels),
	}
	for _, t := range p.tables {
		tl := labels.Merged(telemetry.Labels{"table": strconv.Itoa(t.cfg.ID)})
		t.hits = reg.Counter("catcam_flowtable_classify_total",
			"per-table classification outcomes", tl.Merged(telemetry.Labels{"result": "hit"}))
		t.misses = reg.Counter("catcam_flowtable_classify_total",
			"per-table classification outcomes", tl.Merged(telemetry.Labels{"result": "miss"}))
		t.dev.AttachTelemetry(reg, nil, tl)
	}
}

// AttachTracer starts sampling update requests on every table's backing
// devices into tt; each update trace carries its table ID. Passing nil
// detaches.
func (p *Pipeline) AttachTracer(tt *tracepkg.Tracer) {
	for _, t := range p.tables {
		t.dev.AttachTracer(tt)
	}
}

// AttachAuditors attaches mk(tableID) to every table's backing device.
// Pass a constructor returning per-table auditors (so violations carry
// distinct table labels) or the same auditor for a pooled view; a nil
// return detaches that table.
func (p *Pipeline) AttachAuditors(mk func(tableID int) *flightrec.Auditor) {
	for _, t := range p.tables {
		t.dev.AttachAuditor(mk(t.cfg.ID))
	}
}

// AuditSweep runs one background audit pass over every table's device
// and returns the aggregate sweep accounting.
func (p *Pipeline) AuditSweep() flightrec.SweepInfo {
	var total flightrec.SweepInfo
	for _, t := range p.tables {
		total.Add(t.dev.AuditSweep())
	}
	return total
}

// Errors returned by Install and Remove.
var (
	ErrUnknownTable = errors.New("flowtable: unknown table")
	ErrBackwardGoto = errors.New("flowtable: goto-table must target a later table")
	ErrActionRange  = errors.New("flowtable: terminal action out of range")
)

// NewPipeline builds a pipeline; configs list the tables in traversal
// order, so their IDs must be strictly ascending.
func NewPipeline(configs []TableConfig) (*Pipeline, error) {
	if len(configs) == 0 {
		return nil, errors.New("flowtable: no tables")
	}
	p := &Pipeline{tables: make([]*table, 0, len(configs))}
	p.scratchPool.New = func() any { return new(classifyScratch) }
	for i, c := range configs {
		if i > 0 && c.ID <= configs[i-1].ID {
			return nil, fmt.Errorf("flowtable: table IDs must be unique and ascending, got %d after %d", c.ID, configs[i-1].ID)
		}
		if c.Partition != cluster.ModeInterval {
			return nil, fmt.Errorf("flowtable: table %d: unknown partition %d, the cluster only partitions by priority interval", c.ID, c.Partition)
		}
		if c.FanWorkers > 1 {
			return nil, fmt.Errorf("flowtable: table %d: %d fan-out workers, a cluster classifies in the caller", c.ID, c.FanWorkers)
		}
		// Every span a table's devices emit carries the table ID.
		var dev Backend
		if c.Shards >= 2 {
			cl := cluster.New(cluster.Config{Shards: c.Shards, Device: c.Device})
			cl.SetTraceLabels(c.ID)
			dev = cl
		} else {
			d := core.NewDevice(c.Device)
			d.SetTraceLabels(c.ID, -1)
			dev = d
		}
		p.tables = append(p.tables, &table{cfg: c, dev: dev})
	}
	return p, nil
}

// position returns the traversal position of table id, or -1 when the
// pipeline has no such table.
func (p *Pipeline) position(id int) int {
	for pos, t := range p.tables {
		if t.cfg.ID == id {
			return pos
		}
	}
	return -1
}

// Table returns the engine backing a table (stats, invariants). The
// concrete type is *core.Device or, for sharded tables,
// *cluster.Cluster. Its entries' actions are packed instructions, not
// the actions their flow rules were installed with: a classify through
// the engine directly reports words only the pipeline can decode.
func (p *Pipeline) Table(id int) (Backend, bool) {
	pos := p.position(id)
	if pos < 0 {
		return nil, false
	}
	return p.tables[pos].dev, true
}

// Close does nothing: no table holds background resources.
//
// Deprecated: kept only because benchmark/ still calls it; deleted with
// the benchmark-side edits of ROADMAP item 5.
func (p *Pipeline) Close() {}

// TableIDs returns the traversal order.
func (p *Pipeline) TableIDs() []int {
	ids := make([]int, len(p.tables))
	for pos, t := range p.tables {
		ids[pos] = t.cfg.ID
	}
	return ids
}

// Epoch returns the sum of every table's backend epoch (a clustered
// table's is its cut sequence) — a monotonic stamp that changes
// whenever any rule in any table changes, so a front-end flow cache
// keyed on it never serves a decision staler than the last
// install/remove. Lock-free (one load per backend).
func (p *Pipeline) Epoch() uint64 {
	var e uint64
	for _, t := range p.tables {
		e += t.dev.Epoch()
	}
	return e
}

// pack returns the action word an entry stores for its flow rule's
// instruction: v is the terminal action or, when next, the traversal
// position of the goto target, and the low bit tells the two apart.
// unpack is its inverse.
func pack(v int, next bool) int {
	w := v << 1
	if next {
		w |= 1
	}
	return w
}

func unpack(w int) (v int, next bool) { return w >> 1, w&1 != 0 }

// Install adds a flow rule to a table: one backend insert of the rule
// with its instruction packed into the action word, so a classify sees
// the rule and its instruction together or not at all. Goto targets
// are validated against the forward-only constraint, as an OpenFlow
// agent would, and resolved to their traversal position; a terminal
// action must survive the packing (any int32 does). The rule's own
// Action is not stored.
func (p *Pipeline) Install(tableID int, fr FlowRule) (core.UpdateResult, error) {
	pos := p.position(tableID)
	if pos < 0 {
		return core.UpdateResult{}, fmt.Errorf("%w: %d", ErrUnknownTable, tableID)
	}
	r := fr.Rule
	if g := fr.Instruction.GotoTable; g >= 0 {
		gp := p.position(g)
		if gp < 0 {
			return core.UpdateResult{}, fmt.Errorf("%w: goto %d", ErrUnknownTable, g)
		}
		if gp <= pos {
			return core.UpdateResult{}, fmt.Errorf("%w: %d -> %d", ErrBackwardGoto, tableID, g)
		}
		r.Action = pack(gp, true)
	} else {
		a := fr.Instruction.Action
		if v, _ := unpack(pack(a, false)); v != a {
			return core.UpdateResult{}, fmt.Errorf("%w: %d", ErrActionRange, a)
		}
		r.Action = pack(a, false)
	}
	return p.tables[pos].dev.InsertRule(r)
}

// Remove deletes a rule from a table.
func (p *Pipeline) Remove(tableID, ruleID int) (core.UpdateResult, error) {
	pos := p.position(tableID)
	if pos < 0 {
		return core.UpdateResult{}, fmt.Errorf("%w: %d", ErrUnknownTable, tableID)
	}
	return p.tables[pos].dev.DeleteRule(ruleID)
}

// Trace records one table visit during classification.
type Trace struct {
	TableID int
	RuleID  int // -1 on miss
	Action  int // the terminal or miss action; 0 on a goto
}

// Classify walks the pipeline for a header and returns the final action
// plus the per-table trace: the batch wave on a batch of one, with the
// visit log switched on.
func (p *Pipeline) Classify(h rules.Header) (int, []Trace) {
	hs := [1]rules.Header{h}
	var visits [1][]Trace
	var out [1]int
	action := p.wave(nil, hs[:], out[:0], visits[:])[0]
	return action, visits[0]
}

// ClassifyBatch classifies a batch of headers and appends one final
// action per header to dst (in input order), returning it. Because
// goto-table is strictly forward, the whole batch is processed in one
// ascending sweep over the tables: at each table, every packet
// currently parked there is looked up in a single batched device call
// (lock-free on the device side), and each hit's instruction is
// decoded from the matched entry's action word, so it comes from the
// same snapshot as the match and costs no further lookup. Survivors
// move strictly forward. Safe for concurrent use, with no lock taken —
// each call checks its own working set out of the pipeline's scratch
// pool — and with a reused dst the call allocates nothing at steady
// state. Per-packet traces are not collected; use Classify for those.
//
// A non-nil tr records spans for one sampled batch: one table_classify
// span per table wave, with the backend's own dispatch/shard/kernel
// spans beneath it. A nil tr adds two nil tests per wave. (This is not
// a hotpath analyzer root: the backend calls go through the Backend
// interface, which the analyzer cannot prove through; the proven roots
// are the concrete device and cluster batch lookups underneath.)
func (p *Pipeline) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []int) []int {
	return p.wave(tr, hs, dst, nil)
}

// wave is the one goto walk: the ascending sweep ClassifyBatch
// describes. visits, nil on the batch path, is Classify's per-packet
// visit log (one slice per header); it costs the batch path one nil
// test per looked-up packet.
func (p *Pipeline) wave(tr *tracepkg.Trace, hs []rules.Header, dst []int, visits [][]Trace) []int {
	base := len(dst)
	s := p.scratchPool.Get().(*classifyScratch)
	defer p.scratchPool.Put(s)
	s.cur, s.depth = s.cur[:0], s.depth[:0]
	for range hs {
		dst = append(dst, Drop) // packets that fall off the end drop
		s.cur = append(s.cur, 0)
		s.depth = append(s.depth, 0)
	}
	for pos, t := range p.tables {
		s.hdrs, s.idxs = s.hdrs[:0], s.idxs[:0]
		for i, c := range s.cur {
			if c == pos {
				s.hdrs = append(s.hdrs, hs[i])
				s.idxs = append(s.idxs, i)
			}
		}
		if len(s.hdrs) == 0 {
			continue
		}
		var waveStart uint64
		if tr != nil {
			waveStart = tracepkg.Nanos()
		}
		s.results = t.dev.LookupHeaderBatchTraced(tr, s.hdrs, s.results[:0])
		if tr != nil {
			//catcam:allow alloc "sampled trace span; rate-gated off the steady-state path"
			tr.Span(tracepkg.StageTableClassify, t.cfg.ID, -1, -1, -1, waveStart, 0)
		}
		miss := t.cfg.Miss
		for j, r := range s.results {
			i := s.idxs[j]
			s.depth[i]++
			v := Trace{TableID: t.cfg.ID, RuleID: -1, Action: miss.MissAction}
			next := -1 // the position the packet moves to; -1 terminates
			if r.OK {
				t.hits.Inc()
				v.RuleID = r.Entry.Rank.RuleID
				if w, isGoto := unpack(r.Entry.Action); isGoto {
					v.Action, next = 0, w
				} else {
					v.Action = w
				}
			} else {
				t.misses.Inc()
				if miss.Continue {
					next = pos + 1
				}
			}
			s.cur[i] = next
			if next < 0 {
				dst[base+i] = v.Action
			}
			if visits != nil {
				visits[i] = append(visits[i], v)
			}
		}
	}
	if t := p.tel; t != nil {
		for i := range hs {
			t.gotoDepth.Observe(uint64(s.depth[i]))
			if dst[base+i] == Drop {
				t.drops.Inc()
			}
		}
	}
	return dst
}

// UpdateStats sums update statistics across every table.
func (p *Pipeline) UpdateStats() core.Stats {
	var total core.Stats
	for _, t := range p.tables {
		total.Add(t.dev.Stats())
	}
	return total
}

// CheckInvariant verifies every table's device invariants.
func (p *Pipeline) CheckInvariant() error {
	for _, t := range p.tables {
		if err := t.dev.CheckInvariant(); err != nil {
			return fmt.Errorf("table %d: %w", t.cfg.ID, err)
		}
	}
	return nil
}
