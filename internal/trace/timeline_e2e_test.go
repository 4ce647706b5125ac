package trace_test

import (
	"strings"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/trace"
)

// TestPublishPrecedesRefill reads cause, then effect, off one timeline.
// A device and an ingress engine share one tracer sampling 1 in 1. Once
// the flow cache is warm a burst touches no device; then an insert
// publishes an epoch, and the next burst misses and refills the cache
// from the device. On the timeline the insert's publish ends before
// that burst begins, and the burst holds the device_lookup spans of its
// misses.
func TestPublishPrecedesRefill(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 100, Seed: 4})
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 64, KeyWidth: 160})
	for _, r := range rs.Rules[1:] {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	tracer := trace.NewTracer(16)
	tracer.SetSampleEvery(1)
	d.AttachTracer(tracer)
	eng := ingress.New(ingress.Config{FlowCacheSize: 1024, Backend: ingress.NewLookupBackend(d), Tracer: tracer})
	hs := classbench.PacketTrace(rs, 32, 0.9, 9)
	eng.ProcessSync(0, hs) // fill the flow cache
	eng.ProcessSync(0, hs) // every flow hits
	if _, err := d.InsertRule(rs.Rules[0]); err != nil {
		t.Fatal(err)
	}
	eng.ProcessSync(0, hs) // the new epoch invalidated every cached decision

	var roots []string
	var rootTs []float64
	var publishEnd float64
	lookups := map[uint64]int{} // device_lookup events per trace
	var pids []uint64
	for _, ev := range trace.TimelineEvents(tracer.Snapshot()) {
		switch {
		case ev.Ph == "X" && ev.Cat == "request":
			roots = append(roots, ev.Name)
			rootTs = append(rootTs, ev.Ts)
			pids = append(pids, ev.Pid)
		case ev.Name == trace.StagePublish.String():
			publishEnd = ev.Ts + ev.Dur
		case ev.Name == trace.StageDeviceLookup.String():
			lookups[ev.Pid]++
		}
	}
	if got := strings.Join(roots, " "); got != "ingress ingress insert ingress" {
		t.Fatalf("traces on the timeline: %s, want ingress ingress insert ingress", got)
	}
	if lookups[pids[1]] != 0 {
		t.Fatalf("the warm burst looked up %d keys on the device", lookups[pids[1]])
	}
	if publishEnd == 0 || publishEnd > rootTs[3] {
		t.Fatalf("publish ends at %.3fus, the refill burst begins at %.3fus", publishEnd, rootTs[3])
	}
	if lookups[pids[3]] == 0 {
		t.Fatal("the burst after the publish holds no device_lookup span")
	}
}
