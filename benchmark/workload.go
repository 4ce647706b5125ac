package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flowtable"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// The serve defaults every workload runs on (catcam-serve -ingress).
const (
	burstSize = 64
	ringSize  = 4096
	cacheSize = 65536
)

const (
	// tableSeed fixes the ClassBench rule sets and updateSeed the update
	// trace: the table and what is done to it are the fixture, and
	// --seed draws the traffic. Row count per rule varies ±8 % and
	// active subtables ±11 % from one rule-set seed to the next, which
	// would swamp every bound; seed 5 gives the 4,920-row / 30-subtable
	// ACL-1K and the 22,886-row / 132-subtable ACL-5K the ROADMAP
	// figures refer to. Which rules an update trace touches moves
	// update_bytes_per_op by 0.5-1.2 % and, at 4,000 ops, update_p99_us
	// by 0.15 from one update seed to the next.
	tableSeed  = 5
	updateSeed = 7
	// tracePackets is the length of the recorded .catp trace; the
	// source replays it in a loop.
	tracePackets = 1 << 20
	// updatePhaseOps is the size of the idle-traffic update phase: 40
	// ops beyond the 99th percentile.
	updatePhaseOps = 4000
	// checkHeaders is how many trace headers a quiescent check sends
	// through the engine and the reference.
	checkHeaders = 4096
	// churnOps is the size of one inline update burst.
	churnOps = 8
	// prefilterRules is the size of tables_sharded's table 0.
	prefilterRules = 64
)

// workload is one row of the workload table in README.md.
type workload struct {
	Name string
	Why  string
	// Rules is the ClassBench ACL size of the classify table.
	Rules int
	Flows int
	// ZipfS is the flow-popularity skew; 1 means uniform draws.
	ZipfS float64
	// Sharded puts the table behind flowtable + a 2-shard cluster.
	Sharded bool
	// Procs is GOMAXPROCS while the workload runs; 0 leaves it alone.
	// tables_sharded runs on one P: on two, every burst hands its misses
	// to two parked goroutines and so wakes an idle vCPU, and what that
	// costs is the hypervisor's to decide, 34 µs a burst in one hour and
	// 50 in the next on unchanged code (README.md, "One P"). On one P the
	// same channels, WaitGroup and pooled rounds are crossed by goroutine
	// switches, and the figures read what the plumbing costs the CPU.
	Procs int
	// ChurnEvery is the number of dispatched packets between inline
	// update bursts (0 = the table is static while traffic runs).
	ChurnEvery int
	// Packets is the measured packet count of one round when
	// --seconds is 10; the warm-up before it is a fifth of that.
	Packets int
	// TracedPackets is the fixed size of the single-goroutine traced
	// run.
	TracedPackets int
}

var workloads = []workload{
	{
		Name:  "fastpath_hot",
		Why:   "2,048 Zipf flows all sit in the flow cache: ingress (hash, Dispatch, ring, cache hit) does all the work and core/sram none, so a core/sram change must show no change here",
		Rules: 1000, Flows: 2048, ZipfS: 1.2,
		Packets: 64 << 20, TracedPackets: 200 << 10,
	},
	{
		Name:  "slowpath_scan",
		Rules: 5000, Flows: 1 << 20, ZipfS: 1,
		Why:     "1 Mi uniform flows over ACL-5K (132 subtables, planes larger than L2) defeat the cache: the core snapshot walk and the sram kernel do nearly all the work",
		Packets: 160 << 10, TracedPackets: 32 << 10,
	},
	{
		Name:  "zipf_churn",
		Rules: 1000, Flows: 1 << 20, ZipfS: 1.2, ChurnEvery: 16384,
		Why:     "8 rule updates every 16,384 packets each publish an epoch that flushes the flow cache: the one workload where the update path moves a classify metric",
		Packets: 5 << 19, TracedPackets: 200 << 10,
	},
	{
		Name:  "tables_sharded",
		Rules: 1000, Flows: 1 << 20, ZipfS: 1.2, Sharded: true, Procs: 1,
		Why:     "the only path through flowtable (wave classify, goto) and a 2-shard cluster (fan-out round, arbiter reduce); on one P, so their plumbing shows as CPU time and not as the host's vCPU wake-ups",
		Packets: 6 << 20, TracedPackets: 200 << 10,
	},
}

// onProcs sets GOMAXPROCS to the workload's and returns what puts it
// back.
func (w *workload) onProcs() (restore func()) {
	if w.Procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(w.Procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stack is the classify stack catcam-serve -ingress wires, below the
// engine: the ingress slow-path backend, the top-level update API of
// whatever sits behind it, and the leaf devices for counters.
type stack struct {
	backend ingress.Backend
	insert  func(rules.Rule) (core.UpdateResult, error)
	remove  func(ruleID int) (core.UpdateResult, error)
	stats   func() core.Stats
	check   func() error
	// devices are the leaf core.Devices that hold classify-table or
	// prefilter rows.
	devices []*core.Device
	// pipeline and cluster are set on tables_sharded only.
	pipeline *flowtable.Pipeline
	cluster  *cluster.Cluster
	// applied is how many ops of the update trace the stack has taken.
	applied int
}

func (s *stack) close() {
	if s.pipeline != nil {
		s.pipeline.Close()
	}
}

// applyNext issues the next op of the update trace through the
// top-level update API.
func (s *stack) applyNext(updates []classbench.Update) error {
	u := updates[s.applied]
	s.applied++
	var err error
	if u.Op == classbench.OpInsert {
		_, err = s.insert(u.Rule)
	} else {
		_, err = s.remove(u.Rule.ID)
	}
	return err
}

// entries and activeSubtables sum over the leaf devices.
func (s *stack) entries() (n int) {
	for _, d := range s.devices {
		n += d.Len()
	}
	return n
}

func (s *stack) activeSubtables() (n int) {
	for _, d := range s.devices {
		n += d.ActiveSubtables()
	}
	return n
}

// newStack builds the workload's stack and loads rs through its
// top-level update API.
func newStack(w *workload, rs *rules.Ruleset) (*stack, error) {
	s := &stack{}
	if !w.Sharded {
		dev := core.NewDevice(core.Compact())
		s.backend = ingress.NewLookupBackend(dev)
		s.insert, s.remove = dev.InsertRule, dev.DeleteRule
		s.stats, s.check = dev.Stats, dev.CheckInvariant
		s.devices = []*core.Device{dev}
	} else {
		p, err := flowtable.NewPipeline([]flowtable.TableConfig{
			{ID: 0, Device: core.Compact(), Miss: flowtable.MissPolicy{Continue: true}},
			{ID: 1, Device: core.Compact(), Miss: flowtable.MissPolicy{MissAction: flowtable.Drop},
				Shards: 2, Partition: cluster.ModeInterval, FanWorkers: 1},
		})
		if err != nil {
			return nil, err
		}
		pre := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: prefilterRules, Seed: tableSeed + 1})
		for _, r := range pre.Rules {
			if _, err := p.Install(0, flowtable.FlowRule{Rule: r, Instruction: flowtable.Goto(1)}); err != nil {
				p.Close()
				return nil, fmt.Errorf("install prefilter rule %d: %w", r.ID, err)
			}
		}
		t0, _ := p.Table(0)
		t1, _ := p.Table(1)
		cl := t1.(*cluster.Cluster)
		s.pipeline, s.cluster = p, cl
		s.backend = ingress.NewPipelineBackend(p)
		s.insert = func(r rules.Rule) (core.UpdateResult, error) {
			return p.Install(1, flowtable.FlowRule{Rule: r, Instruction: flowtable.Terminal(r.Action)})
		}
		s.remove = func(id int) (core.UpdateResult, error) { return p.Remove(1, id) }
		s.stats, s.check = p.UpdateStats, p.CheckInvariant
		s.devices = []*core.Device{t0.(*core.Device)}
		for i := 0; i < cl.NumShards(); i++ {
			s.devices = append(s.devices, cl.Shard(i))
		}
	}
	for _, r := range rs.Rules {
		if _, err := s.insert(r); err != nil {
			s.close()
			return nil, fmt.Errorf("load rule %d: %w", r.ID, err)
		}
	}
	return s, nil
}

// mirror is the swclass.Linear reference kept in step with every
// update. Linear scans a map, so decisions are memoised per header
// until the next update.
type mirror struct {
	ref  *swclass.Linear
	memo map[rules.Header]ingress.Result
}

func newMirror(rs *rules.Ruleset) (*mirror, error) {
	m := &mirror{ref: swclass.NewLinear(), memo: make(map[rules.Header]ingress.Result)}
	for _, r := range rs.Rules {
		if err := m.ref.Insert(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *mirror) apply(u classbench.Update) error {
	clear(m.memo)
	if u.Op == classbench.OpInsert {
		return m.ref.Insert(u.Rule)
	}
	return m.ref.Delete(u.Rule.ID)
}

// agrees reports whether got is the reference decision for h. A miss
// carries no action: the lookup backend reports 0 and the pipeline
// backend flowtable.Drop, so only Matched is compared then.
func (m *mirror) agrees(h rules.Header, got ingress.Result) bool {
	want, ok := m.memo[h]
	if !ok {
		action, matched, _ := m.ref.Lookup(h)
		want = ingress.Result{Action: int32(action), Matched: matched}
		m.memo[h] = want
	}
	if !want.Matched {
		return !got.Matched
	}
	return got == want
}

// fixture is everything set-up produces for one round of one workload.
type fixture struct {
	w       *workload
	rs      *rules.Ruleset
	st      *stack
	trace   []rules.Header
	updates []classbench.Update
	mirror  *mirror
	// mirrored is how many ops of updates the mirror has taken.
	mirrored int

	setupS float64
	heapMB float64
}

// fault names a seeded fault, so that tests can prove the checks bite.
type fault string

const (
	faultNone         fault = ""
	faultSkipMirror   fault = "skip-mirror"   // the mirror misses one update
	faultTruncateCATP fault = "truncate-catp" // the recorded trace loses its tail
)

// inlineOps is how many update ops a classify phase of n packets
// issues inline.
func (w *workload) inlineOps(n int) int {
	if w.ChurnEvery == 0 {
		return 0
	}
	return (n - 1) / w.ChurnEvery * churnOps
}

// setUp is step 1 of a round, timed as setup_s: rules, table load,
// flow universe, recorded trace read back from its .catp file, update
// trace, reference mirror. phasePackets is the classify phase's total
// (warm-up + measured); traceLen and updateOps shrink with -scale.
func setUp(w *workload, seed int64, phasePackets, traceLen, updateOps int, resultsDir string, ft fault) (*fixture, error) {
	start := time.Now()
	f := &fixture{w: w}
	f.rs = classbench.Generate(classbench.Config{Family: classbench.ACL, Size: w.Rules, Seed: tableSeed})

	// Two collections: the first only moves what earlier rounds left
	// in sync.Pools to the victim cache, the second frees it.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st, err := newStack(w, f.rs)
	if err != nil {
		return nil, err
	}
	f.st = st
	runtime.GC()
	runtime.ReadMemStats(&m1)
	f.heapMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6

	gen := ingress.NewGenerator(f.rs, ingress.GenConfig{Flows: w.Flows, ZipfS: w.ZipfS, Seed: seed})
	drawn := make([]rules.Header, traceLen)
	gen.Fill(drawn)
	f.trace, err = recordAndReplay(drawn, resultsDir, ft)
	if err != nil {
		st.close()
		return nil, err
	}

	f.updates = classbench.UpdateTraceFresh(f.rs, w.inlineOps(phasePackets)+updateOps, updateSeed)
	if f.mirror, err = newMirror(f.rs); err != nil {
		st.close()
		return nil, err
	}
	f.setupS = time.Since(start).Seconds()
	return f, nil
}

// recordAndReplay writes hs to a temporary .catp file and returns the
// file's contents: what the benchmark replays is what was recorded.
func recordAndReplay(hs []rules.Header, dir string, ft fault) ([]rules.Header, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(dir, "replay-*.catp")
	if err != nil {
		return nil, err
	}
	path := file.Name()
	defer os.Remove(path)
	if err := file.Close(); err != nil {
		return nil, err
	}
	if err := ingress.WriteTraceFile(path, hs); err != nil {
		return nil, fmt.Errorf("record %s: %w", filepath.Base(path), err)
	}
	if ft == faultTruncateCATP {
		if err := os.Truncate(path, int64(len(hs))*13/2); err != nil {
			return nil, err
		}
	}
	back, err := ingress.ReadTraceFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", filepath.Base(path), err)
	}
	return back, nil
}

// syncMirror brings the mirror up to the ops f's stack has taken.
// The seeded fault drops the last of them.
func (f *fixture) syncMirror(ft fault) (failed int) {
	for ; f.mirrored < f.st.applied; f.mirrored++ {
		if ft == faultSkipMirror && f.mirrored == f.st.applied-1 {
			continue
		}
		if err := f.mirror.apply(f.updates[f.mirrored]); err != nil {
			failed++
		}
	}
	return failed
}
