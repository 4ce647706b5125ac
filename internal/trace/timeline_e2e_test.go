package trace_test

import (
	"strings"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/ingress"
	"catcam/internal/rules"
	"catcam/internal/trace"
)

// TestPublishPrecedesRefill reads cause, then effect, off one timeline.
// A device and an ingress engine share one tracer sampling 1 in 1. Once
// the flow cache is warm a burst touches no device; then an insert
// publishes an epoch, and the next burst refills from the device the
// flows whose answer the new rule can change, and only those: the rest
// revalidate. On the timeline the insert's publish ends before that
// burst begins, and the burst holds one device_lookup span per flow the
// new rule matches.
func TestPublishPrecedesRefill(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Family: classbench.ACL, Size: 100, Seed: 4})
	d := core.NewDevice(core.Config{Subtables: 16, SubtableCapacity: 64, KeyWidth: 160})
	top := 0
	for _, r := range rs.Rules {
		if _, err := d.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		top = max(top, r.Priority)
	}
	tracer := trace.NewTracer(16)
	tracer.SetSampleEvery(1)
	d.AttachTracer(tracer)
	eng := ingress.New(ingress.Config{FlowCacheSize: 1024, Backend: ingress.NewLookupBackend(d), Tracer: tracer})
	hs := classbench.PacketTrace(rs, 32, 0.9, 9)
	eng.ProcessSync(0, hs) // fill the flow cache
	eng.ProcessSync(0, hs) // every flow hits
	// A rule above every other that matches exactly the first flow.
	h := hs[0]
	exact := rules.Rule{ID: len(rs.Rules) + 1, Priority: top + 1, Action: 1,
		SrcIP: rules.Prefix{Addr: h.SrcIP, Len: 32}, DstIP: rules.Prefix{Addr: h.DstIP, Len: 32},
		SrcPort: rules.PortRange{Lo: h.SrcPort, Hi: h.SrcPort}, DstPort: rules.PortRange{Lo: h.DstPort, Hi: h.DstPort},
		Proto: h.Proto}
	changed := 0
	for _, h := range hs {
		if exact.Matches(h) {
			changed++
		}
	}
	if _, err := d.InsertRule(exact); err != nil {
		t.Fatal(err)
	}
	eng.ProcessSync(0, hs) // the flows the new rule matches refill

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
	if got := lookups[pids[3]]; got != changed || got >= len(hs) {
		t.Fatalf("the burst after the publish looked up %d of %d keys on the device, want the %d the new rule matches",
			got, len(hs), changed)
	}
}
