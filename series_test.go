package catcam_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"catcam/internal/classbench"
	"catcam/internal/cluster"
	"catcam/internal/core"
	"catcam/internal/flightrec"
	"catcam/internal/flowtable"
	"catcam/internal/ingress"
	"catcam/internal/stateobs"
	"catcam/internal/telemetry"
)

// observedStack is every observed component attached to one registry:
// a standalone device, a 2-shard cluster, a 2-table pipeline with an
// ingress engine over it, an auditor and an observatory of the device.
type observedStack struct {
	reg *telemetry.Registry
	dev *core.Device
	cl  *cluster.Cluster
	p   *flowtable.Pipeline
	eng *ingress.Engine
	aud *flightrec.Auditor
	obs *stateobs.Observatory
}

func newObservedStack(t *testing.T) *observedStack {
	t.Helper()
	geom := core.Config{Subtables: 32, SubtableCapacity: 16, KeyWidth: 160}
	s := &observedStack{reg: telemetry.NewRegistry()}

	s.dev = core.NewDevice(geom)
	s.dev.AttachTelemetry(s.reg, nil, nil)

	s.cl = cluster.New(cluster.Config{Shards: 2, Device: geom})
	s.cl.AttachTelemetry(s.reg, nil, nil)

	p, err := flowtable.NewPipeline([]flowtable.TableConfig{
		{ID: 0, Device: geom, Miss: flowtable.MissPolicy{Continue: true}},
		{ID: 1, Device: geom},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.p = p
	s.p.AttachTelemetry(s.reg, nil, nil)

	s.eng = ingress.New(ingress.Config{Workers: 2, FlowCacheSize: 64, Backend: ingress.NewPipelineBackend(s.p)})
	s.eng.AttachTelemetry(s.reg, nil)

	s.aud = flightrec.NewAuditor(s.reg, nil, 0, nil)
	s.dev.AttachAuditor(s.aud)

	s.obs = stateobs.New(s.dev, stateobs.Config{})
	s.obs.AttachTelemetry(s.reg, nil)
	return s
}

// exportedSeries lists the registry's exposition one series per line,
// as "TYPE name{labels} HELP", in /metrics order. A histogram's series
// is named by its _count line; the derived quantile gauges are series
// of their own families.
func exportedSeries(t *testing.T, reg *telemetry.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	var name, typ, help string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ = strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
		case strings.HasPrefix(line, "# TYPE "):
			var n string
			n, typ, _ = strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if n != name {
				name, help = n, ""
			}
		default:
			series := line[:strings.LastIndexByte(line, ' ')]
			if typ == "histogram" {
				sig, ok := strings.CutPrefix(series, name+"_count")
				if !ok {
					continue
				}
				series = name + sig
			}
			out = append(out, strings.TrimSpace(fmt.Sprintf("%s %s %s", typ, series, help)))
		}
	}
	return out
}

// TestExportedSeriesSet pins every series the observers export —
// name, labels, TYPE and HELP, in exposition order — for the whole
// observed stack on one registry. testdata/series.txt is the expected
// list; a change to it is a change to every dashboard and alert that
// scrapes /metrics.
func TestExportedSeriesSet(t *testing.T) {
	s := newObservedStack(t)
	got := exportedSeries(t, s.reg)
	raw, err := os.ReadFile("testdata/series.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	gotSet := make(map[string]bool, len(got))
	for _, g := range got {
		gotSet[g] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, w := range want {
		wantSet[w] = true
		if !gotSet[w] {
			t.Errorf("missing series: %s", w)
		}
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("unexpected series: %s", g)
		}
	}
	if !t.Failed() && strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("series exported out of registration order; got:\n%s", strings.Join(got, "\n"))
	}
}

// TestExportedCountsMatchSources drives the observed stack (bulk load,
// ResetStats, churn, classify, an ingress burst, an audit sweep and an
// observatory sweep) and checks that every series exporting a count
// another layer keeps reads what that layer reports.
func TestExportedCountsMatchSources(t *testing.T) {
	s := newObservedStack(t)
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 60, Seed: 7})
	for _, r := range rs.Rules {
		if _, err := s.dev.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.cl.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.p.Install(r.ID%2, flowtable.FlowRule{Rule: r, Instruction: flowtable.Instruction{GotoTable: -1, Action: r.ID}}); err != nil {
			t.Fatal(err)
		}
	}
	s.dev.ResetStats()
	s.cl.ResetStats()
	for _, u := range classbench.UpdateTraceFresh(rs, 200, 8) {
		if u.Op == classbench.OpInsert {
			_, _ = s.dev.InsertRule(u.Rule)
		} else {
			_, _ = s.dev.DeleteRule(u.Rule.ID)
		}
	}
	hs := classbench.PacketTrace(rs, 200, 0.8, 9)
	s.dev.LookupHeaderBatch(hs, nil)
	s.cl.LookupHeaderBatch(hs, nil)
	s.cl.RebalanceOnce(8)
	s.eng.ProcessSync(0, hs[:64])
	s.eng.ProcessSync(1, hs[:64])
	s.dev.AuditSweep()
	s.obs.Sweep(time.Unix(1000, 0))

	snap := s.reg.Snapshot()
	check := func(key string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	counter := func(key string, want uint64) {
		t.Helper()
		v, ok := snap.Counters[key]
		if !ok {
			t.Errorf("%s not exported", key)
		}
		check(key, v, want)
	}
	gauge := func(key string, want int) {
		t.Helper()
		v, ok := snap.Gauges[key]
		if !ok {
			t.Errorf("%s not exported", key)
		}
		check(key, uint64(v), uint64(want))
	}
	device := func(sig string, d *core.Device) {
		t.Helper()
		st := d.Stats()
		counter("catcam_lookups_total"+sig, st.Lookups)
		counter("catcam_reallocations_total"+sig, st.Reallocations)
		counter("catcam_fresh_subtables_total"+sig, st.FreshSubtables)
		gauge("catcam_entries"+sig, d.Len())
		gauge("catcam_active_subtables"+sig, d.ActiveSubtables())
		gauge("catcam_epoch"+sig, int(d.Epoch()))
	}
	device("", s.dev)
	if st := s.dev.Stats(); st.Lookups == 0 || st.Reallocations == 0 || st.FreshSubtables == 0 {
		t.Errorf("scenario too small to exercise the device counters: %+v", st)
	}
	for i := 0; i < 2; i++ {
		device(fmt.Sprintf(`{shard="%d"}`, i), s.cl.Shard(i))
		tb, _ := s.p.Table(i)
		device(fmt.Sprintf(`{table="%d"}`, i), tb.(*core.Device))
	}

	passes, moved := s.cl.RebalanceStats()
	counter("catcam_cluster_rebalance_passes_total", passes)
	counter("catcam_cluster_rebalance_rules_total", moved)

	es := s.eng.Snapshot()
	counter("catcam_ingress_packets_total", es.Packets)
	counter("catcam_ingress_drops_total", es.Drops)
	counter("catcam_ingress_cache_hits_total", es.CacheHits)
	counter("catcam_ingress_cache_misses_total", es.CacheMisses)
	counter("catcam_ingress_cache_stale_misses_total", es.StaleMisses)
	for i, w := range es.Workers {
		gauge(fmt.Sprintf(`catcam_ingress_ring_occupancy{worker="%d"}`, i), w.RingOccupancy)
	}

	var checks, fails uint64
	for key, v := range snap.Counters {
		if strings.HasPrefix(key, "catcam_audit_checks_total{") {
			checks += v
		}
		if strings.HasPrefix(key, "catcam_audit_violations_total{") {
			fails += v
		}
	}
	check("audit checks", checks, s.aud.TotalChecks())
	check("audit violations", fails, s.aud.TotalViolations())
	if checks == 0 {
		t.Error("scenario ran no audit checks")
	}

	bad, total := s.obs.HeadroomSource()()
	counter("catcam_state_headroom_checks_total", total)
	counter("catcam_state_headroom_bad_total", bad)
}

// TestScrapeUnderTraffic scrapes the observed stack while every owner
// of a read series writes it: device churn and lookups, cluster
// updates, lookups and rebalances, ingress workers fed by a live
// source, audit and observatory sweeps. Under -race it shows that the
// read functions need no lock.
func TestScrapeUnderTraffic(t *testing.T) {
	s := newObservedStack(t)
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 60, Seed: 7})
	hs := classbench.PacketTrace(rs, 256, 0.8, 9)
	for _, r := range rs.Rules {
		if _, err := s.p.Install(r.ID%2, flowtable.FlowRule{Rule: r, Instruction: flowtable.Instruction{GotoTable: -1, Action: r.ID}}); err != nil {
			t.Fatal(err)
		}
	}
	s.eng.Start()
	churned, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(churned)
		for i, u := range classbench.UpdateTraceFresh(rs, 300, 8) {
			if u.Op == classbench.OpInsert {
				_, _ = s.dev.InsertRule(u.Rule)
				_, _ = s.cl.InsertRule(u.Rule)
			} else {
				_, _ = s.dev.DeleteRule(u.Rule.ID)
				_, _ = s.cl.DeleteRule(u.Rule.ID)
			}
			s.dev.LookupHeaderBatch(hs[:16], nil)
			s.cl.LookupHeaderBatch(hs[:16], nil)
			if i%32 == 0 {
				s.cl.RebalanceOnce(4)
				s.dev.AuditSweep()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.eng.Dispatch(hs[i%len(hs)])
		}
	}()
	scrapes := 0
	for done := false; !done; scrapes++ {
		select {
		case <-churned:
			done = true
		default:
		}
		if err := s.reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		s.obs.Sweep(time.Unix(int64(1000+scrapes), 0))
	}
	close(stop)
	wg.Wait()
	st := s.eng.Stop()
	snap := s.reg.Snapshot()
	if got := snap.Counters["catcam_ingress_packets_total"]; got != st.Packets || got == 0 {
		t.Errorf("catcam_ingress_packets_total = %d after stop, want %d > 0", got, st.Packets)
	}
	if got := snap.Counters["catcam_lookups_total"]; got != s.dev.Stats().Lookups {
		t.Errorf("catcam_lookups_total = %d after churn, want %d", got, s.dev.Stats().Lookups)
	}
}
