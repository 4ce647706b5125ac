// Package flowtable layers OpenFlow-style multi-table semantics on top
// of CATCAM devices — the deployment surface the paper's introduction
// motivates: SDN controllers install fine-grained policies into a
// pipeline of match-action tables, and expect both line-rate lookups
// and immediate rule installation.
//
// Each flow table is backed by one CATCAM engine (one match stage, as
// in a dRMT processor) — either a single device or, for tables whose
// rule count outgrows one device, a sharded cluster behind the same
// Backend interface. A packet enters table 0; the winning entry's
// instruction either emits a final action or forwards the packet to a
// later table (goto-table, strictly increasing as OpenFlow requires).
// A table miss applies the table's miss policy.
//
// Because every table is a CATCAM, controller updates are O(1) at any
// pipeline position — the end-to-end property the paper argues makes
// reactive SDN policies viable on hardware.
package flowtable

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

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
	AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels)
	AttachTracer(tt *tracepkg.Tracer)
	AttachAuditor(aud *flightrec.Auditor)
	AuditSweep() flightrec.SweepInfo
	Stats() core.Stats
	ResetStats()
	CheckInvariant() error
	// Epoch returns the backend's published-snapshot epoch stamp: a
	// monotonic counter that advances on every rule change (see
	// core.Device.Epoch and cluster.Cluster.Epoch). The ingress flow
	// cache compares stamps for equality to invalidate cached
	// decisions. Lock-free on both implementations.
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
// The classify paths (Classify and ClassifyBatch) are safe for
// concurrent use — each call checks its working set out of a
// sync.Pool, the instruction map is read under a shared lock, and the
// backing devices classify lock-free — and may also run concurrently
// with Install/Remove. Construction-time wiring (Attach*) still
// requires a quiescent pipeline.
type Pipeline struct {
	tables map[int]*table
	order  []int
	// structs holds the state observatory's reusable per-table derive
	// buffers (see structure.go).
	structs structState
	// instrMu guards instr: classify holds the read side for the
	// duration of one traversal, Install/Remove the write side.
	instrMu sync.RWMutex
	// instr maps (tableID, ruleID) to the rule's instruction.
	instr map[[2]int]Instruction //catcam:guarded-by instrMu
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
	cur     []int // per-packet position in order; -1 = terminated
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
	ring      *telemetry.EventRing
}

// AttachTelemetry registers classification metrics on reg — per-table
// hit/miss counters and a goto-chain depth histogram — and attaches
// every table's backing device with a {"table": "<id>"} label so
// per-table update histograms and trace events land on the same
// registry and ring.
func (p *Pipeline) AttachTelemetry(reg *telemetry.Registry, ring *telemetry.EventRing, labels telemetry.Labels) {
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
		ring: ring,
	}
	for _, id := range p.order {
		t := p.tables[id]
		tl := labels.Merged(telemetry.Labels{"table": strconv.Itoa(id)})
		t.hits = reg.Counter("catcam_flowtable_classify_total",
			"per-table classification outcomes", tl.Merged(telemetry.Labels{"result": "hit"}))
		t.misses = reg.Counter("catcam_flowtable_classify_total",
			"per-table classification outcomes", tl.Merged(telemetry.Labels{"result": "miss"}))
		t.dev.AttachTelemetry(reg, ring, tl)
	}
}

// AttachTracer starts sampling update requests on every table's backing
// devices into tt; each update trace carries its table ID. Passing nil
// detaches.
func (p *Pipeline) AttachTracer(tt *tracepkg.Tracer) {
	for _, id := range p.order {
		p.tables[id].dev.AttachTracer(tt)
	}
}

// AttachAuditors attaches mk(tableID) to every table's backing device.
// Pass a constructor returning per-table auditors (so violations carry
// distinct table labels) or the same auditor for a pooled view; a nil
// return detaches that table.
func (p *Pipeline) AttachAuditors(mk func(tableID int) *flightrec.Auditor) {
	for _, id := range p.order {
		p.tables[id].dev.AttachAuditor(mk(id))
	}
}

// AttachShadows attaches mk(tableID) as each table's differential
// shadow classifier. Attach before installing rules: the shadow only
// mirrors updates it observes. A nil return leaves that table
// unshadowed. For a sharded table mk is called once per shard — every
// shard needs its own fresh shadow, since each mirrors only its own
// partition of the table's rules.
func (p *Pipeline) AttachShadows(mk func(tableID int) *flightrec.Shadow) {
	for _, id := range p.order {
		switch dev := p.tables[id].dev.(type) {
		case *core.Device:
			dev.AttachShadow(mk(id))
		case *cluster.Cluster:
			id := id
			dev.AttachShadows(func(int) *flightrec.Shadow { return mk(id) })
		}
	}
}

// AuditSweep runs one background audit pass over every table's device
// and returns the aggregate sweep accounting.
func (p *Pipeline) AuditSweep() flightrec.SweepInfo {
	var total flightrec.SweepInfo
	for _, id := range p.order {
		total.Add(p.tables[id].dev.AuditSweep())
	}
	return total
}

// Errors returned by pipeline operations.
var (
	ErrUnknownTable = errors.New("flowtable: unknown table")
	ErrBackwardGoto = errors.New("flowtable: goto-table must target a later table")
)

// NewPipeline builds a pipeline; table IDs must be unique and are
// traversed in ascending order.
func NewPipeline(configs []TableConfig) (*Pipeline, error) {
	if len(configs) == 0 {
		return nil, errors.New("flowtable: no tables")
	}
	p := &Pipeline{
		tables: make(map[int]*table, len(configs)),
		instr:  make(map[[2]int]Instruction),
	}
	p.scratchPool.New = func() any { return new(classifyScratch) }
	for _, c := range configs {
		if _, dup := p.tables[c.ID]; dup {
			return nil, fmt.Errorf("flowtable: duplicate table %d", c.ID)
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
			for i := 0; i < cl.NumShards(); i++ {
				cl.Shard(i).SetTraceLabels(c.ID, i)
			}
			dev = cl
		} else {
			d := core.NewDevice(c.Device)
			d.SetTraceLabels(c.ID, -1)
			dev = d
		}
		p.tables[c.ID] = &table{cfg: c, dev: dev}
		p.order = append(p.order, c.ID)
	}
	for i := 1; i < len(p.order); i++ {
		if p.order[i] <= p.order[i-1] {
			return nil, fmt.Errorf("flowtable: table IDs must be ascending, got %v", p.order)
		}
	}
	return p, nil
}

// Table returns the engine backing a table (stats, invariants). The
// concrete type is *core.Device or, for sharded tables,
// *cluster.Cluster.
func (p *Pipeline) Table(id int) (Backend, bool) {
	t, ok := p.tables[id]
	if !ok {
		return nil, false
	}
	return t.dev, true
}

// Close does nothing: no table holds background resources.
//
// Deprecated: kept only because benchmark/ still calls it; deleted with
// the benchmark-side edits of ROADMAP item 5.
func (p *Pipeline) Close() {}

// TableIDs returns the traversal order.
func (p *Pipeline) TableIDs() []int { return append([]int(nil), p.order...) }

// Epoch returns the sum of every table's backend epoch — a monotonic
// stamp that changes whenever any rule in any table changes, so a
// front-end flow cache keyed on it never serves a decision staler than
// the last install/remove. Lock-free (one snapshot load per backend).
// The instruction map rides the same stamp: Install/Remove advance the
// backend epoch before editing the instruction, so a decision cached
// at epoch E and validated at E predates both halves of every
// completed update (a reader racing the two halves of an in-flight
// update sees the same transient any concurrent ClassifyBatch sees).
func (p *Pipeline) Epoch() uint64 {
	var e uint64
	for _, id := range p.order {
		e += p.tables[id].dev.Epoch()
	}
	return e
}

// Install adds a flow rule to a table. Goto targets are validated
// against the forward-only constraint at install time, as an OpenFlow
// agent would.
func (p *Pipeline) Install(tableID int, fr FlowRule) (core.UpdateResult, error) {
	t, ok := p.tables[tableID]
	if !ok {
		return core.UpdateResult{}, fmt.Errorf("%w: %d", ErrUnknownTable, tableID)
	}
	if g := fr.Instruction.GotoTable; g >= 0 {
		if _, ok := p.tables[g]; !ok {
			return core.UpdateResult{}, fmt.Errorf("%w: goto %d", ErrUnknownTable, g)
		}
		if g <= tableID {
			return core.UpdateResult{}, fmt.Errorf("%w: %d -> %d", ErrBackwardGoto, tableID, g)
		}
	}
	res, err := t.dev.InsertRule(fr.Rule)
	if err != nil {
		return res, err
	}
	p.instrMu.Lock()
	p.instr[[2]int{tableID, fr.Rule.ID}] = fr.Instruction
	p.instrMu.Unlock()
	return res, nil
}

// Remove deletes a rule from a table.
func (p *Pipeline) Remove(tableID, ruleID int) (core.UpdateResult, error) {
	t, ok := p.tables[tableID]
	if !ok {
		return core.UpdateResult{}, fmt.Errorf("%w: %d", ErrUnknownTable, tableID)
	}
	res, err := t.dev.DeleteRule(ruleID)
	if err != nil {
		return res, err
	}
	p.instrMu.Lock()
	delete(p.instr, [2]int{tableID, ruleID})
	p.instrMu.Unlock()
	return res, nil
}

// Trace records one table visit during classification.
type Trace struct {
	TableID int
	RuleID  int // -1 on miss
	Action  int // meaningful when terminal
}

// Classify walks the pipeline for a header and returns the final action
// plus the per-table trace: the batch wave on a batch of one, with the
// visit log switched on. The error is ErrUnknownTable when a matched
// entry's goto target is not a table of this pipeline (the packet
// drops).
func (p *Pipeline) Classify(h rules.Header) (int, []Trace, error) {
	hs := [1]rules.Header{h}
	var visits [1][]Trace
	var out [1]int
	dst, err := p.wave(nil, hs[:], out[:0], visits[:])
	action, traces := dst[0], visits[0]
	if t := p.tel; t != nil {
		ev := telemetry.Event{Kind: telemetry.EvClassify, Table: -1, Subtable: -1,
			RuleID: -1, Depth: len(traces)}
		if n := len(traces); n > 0 {
			ev.Table = traces[n-1].TableID
			ev.RuleID = traces[n-1].RuleID
		}
		t.ring.Emit(ev)
	}
	return action, traces, err
}

// ClassifyBatch classifies a batch of headers and appends one final
// action per header to dst (in input order), returning it. Because
// goto-table is strictly forward, the whole batch is processed in one
// ascending sweep over the tables: at each table, every packet
// currently parked there is looked up in a single batched device call
// (lock-free on the device side), and survivors move strictly
// forward. Safe for concurrent use — each call checks its own working
// set out of the pipeline's scratch pool — and with a reused dst the
// call allocates nothing at steady state. Per-packet traces are not
// collected; use Classify for those.
//
// A non-nil tr records spans for one sampled batch: one table_classify
// span per table wave, with the backend's own dispatch/shard/kernel
// spans beneath it. A nil tr adds two nil tests per wave. (This is not
// a hotpath analyzer root: the backend calls go through the Backend
// interface, which the analyzer cannot prove through; the proven roots
// are the concrete device and cluster batch lookups underneath.)
func (p *Pipeline) ClassifyBatch(tr *tracepkg.Trace, hs []rules.Header, dst []int) []int {
	dst, _ = p.wave(tr, hs, dst, nil) // a vanished goto target drops the packet
	return dst
}

// wave is the one goto walk: the ascending sweep ClassifyBatch
// describes. visits, nil on the batch path, is Classify's per-packet
// visit log (one slice per header); it costs the batch path one nil
// test per visited table. The error reports the first goto whose
// target is not in the pipeline; that packet drops.
func (p *Pipeline) wave(tr *tracepkg.Trace, hs []rules.Header, dst []int, visits [][]Trace) ([]int, error) {
	var err error
	base := len(dst)
	s := p.scratchPool.Get().(*classifyScratch)
	defer p.scratchPool.Put(s)
	p.instrMu.RLock()
	defer p.instrMu.RUnlock()
	s.cur, s.depth = s.cur[:0], s.depth[:0]
	for range hs {
		dst = append(dst, Drop) // packets that fall off the end drop
		s.cur = append(s.cur, 0)
		s.depth = append(s.depth, 0)
	}
	for pos := 0; pos < len(p.order); pos++ {
		id := p.order[pos]
		t := p.tables[id]
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
			tr.Span(tracepkg.StageTableClassify, id, -1, -1, -1, waveStart, 0)
		}
		for j, r := range s.results {
			i := s.idxs[j]
			s.depth[i]++
			if !r.OK {
				t.misses.Inc()
				if t.cfg.Miss.Continue {
					s.cur[i] = pos + 1
				} else {
					s.cur[i] = -1
					dst[base+i] = t.cfg.Miss.MissAction
				}
				continue
			}
			t.hits.Inc()
			ins := p.instr[[2]int{id, r.Entry.Rank.RuleID}]
			if ins.GotoTable < 0 {
				s.cur[i] = -1
				dst[base+i] = ins.Action
				continue
			}
			np := pos + 1
			for np < len(p.order) && p.order[np] != ins.GotoTable {
				np++
			}
			if np == len(p.order) && err == nil {
				err = fmt.Errorf("%w: goto %d", ErrUnknownTable, ins.GotoTable)
			}
			s.cur[i] = np // len(order) drops the packet
		}
		if visits != nil {
			for j, r := range s.results {
				v := Trace{TableID: id, RuleID: -1, Action: t.cfg.Miss.MissAction}
				if r.OK {
					v.RuleID = r.Entry.Rank.RuleID
					v.Action = p.instr[[2]int{id, v.RuleID}].Action
				}
				visits[s.idxs[j]] = append(visits[s.idxs[j]], v)
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
	return dst, err
}

// UpdateStats sums update statistics across every table.
func (p *Pipeline) UpdateStats() core.Stats {
	var total core.Stats
	for _, id := range p.order {
		total.Add(p.tables[id].dev.Stats())
	}
	return total
}

// CheckInvariant verifies every table's device invariants.
func (p *Pipeline) CheckInvariant() error {
	for _, id := range p.order {
		if err := p.tables[id].dev.CheckInvariant(); err != nil {
			return fmt.Errorf("table %d: %w", id, err)
		}
	}
	return nil
}
