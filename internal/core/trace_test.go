package core

import (
	"testing"

	"catcam/internal/trace"
)

// TestLookupHeaderBatchTracedMatchesUntraced pins that tracing is
// observation-only: traced and untraced classification of the same
// batch return identical results.
func TestLookupHeaderBatchTracedMatchesUntraced(t *testing.T) {
	d, headers := loadedDevice(t, 100)
	plain := d.LookupHeaderBatch(headers, nil)
	tr := &trace.Trace{ID: 1}
	traced := d.LookupHeaderBatchTraced(tr, headers, nil)
	if len(plain) != len(traced) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i].OK != traced[i].OK ||
			plain[i].Entry.Rank != traced[i].Entry.Rank ||
			plain[i].Entry.Action != traced[i].Entry.Action {
			t.Fatalf("header %d: traced %+v/%v != untraced %+v/%v",
				i, traced[i].Entry, traced[i].OK, plain[i].Entry, plain[i].OK)
		}
	}
}

// TestDeviceTraceSpans checks the span shape of one traced batch: one
// device_lookup span per key carrying the winning subtable and the
// modeled cycle cost, plus sram_kernel spans only for the focus key,
// one per subtable the host searched: those the filter admits.
func TestDeviceTraceSpans(t *testing.T) {
	d, headers := loadedDevice(t, 100)
	hs := headers[:8]
	tr := &trace.Trace{ID: 7}
	tr.SetFocus(3)
	res := d.LookupHeaderBatchTraced(tr, hs, nil)

	s := d.snap.Load()
	focus := headerKey(d, hs[3])
	pats := s.sel.Patterns(focus)
	admitted := map[int]bool{}
	for _, id := range s.order {
		if s.view(id).match.Admits(pats) {
			admitted[id] = true
		}
	}

	var lookups int
	kernels := map[int]int{}
	for _, sp := range tr.Spans {
		switch sp.Stage {
		case trace.StageDeviceLookup:
			lookups++
			if sp.Key < 0 || sp.Key >= len(hs) {
				t.Fatalf("device_lookup span with key %d outside batch", sp.Key)
			}
			if sp.Cycles == 0 {
				t.Fatalf("device_lookup span without cycle cost: %+v", sp)
			}
			if res[sp.Key].OK && sp.Subtable < 0 {
				t.Fatalf("hit on key %d lost its winning subtable: %+v", sp.Key, sp)
			}
			if !res[sp.Key].OK && sp.Subtable != -1 {
				t.Fatalf("miss on key %d reports subtable %d", sp.Key, sp.Subtable)
			}
		case trace.StageSRAMKernel:
			kernels[sp.Subtable]++
			if sp.Key != 3 {
				t.Fatalf("sram_kernel span for key %d, only the focus key (3) is kernel-traced", sp.Key)
			}
			if !admitted[sp.Subtable] {
				t.Fatalf("sram_kernel span for subtable %d, which the filter skips for the focus key", sp.Subtable)
			}
			if sp.Shard != -1 {
				t.Fatalf("standalone device must emit shard -1, got %d", sp.Shard)
			}
		default:
			t.Fatalf("unexpected stage %s from a bare device", sp.Stage)
		}
	}
	if lookups != len(hs) {
		t.Fatalf("%d device_lookup spans for %d keys", lookups, len(hs))
	}
	for id, n := range kernels {
		if n != 1 {
			t.Fatalf("%d sram_kernel spans for subtable %d, want 1", n, id)
		}
	}
	if len(kernels) != len(admitted) || len(admitted) == 0 {
		t.Fatalf("sram_kernel spans for %d subtables, want one per subtable searched (%d of %d active)",
			len(kernels), len(admitted), d.ActiveSubtables())
	}
}

// TestTraceDoesNotOutliveItsBatch pins that the trace context riding the
// pooled scratch is cleared on return: after a traced batch, untraced
// lookups on the same goroutine (which get the same scratch back) add
// no span to the finished trace. The focus is the batch's last key, so
// a scratch that kept its context would kernel-trace the next key.
func TestTraceDoesNotOutliveItsBatch(t *testing.T) {
	d, headers := loadedDevice(t, 100)
	hs := headers[:4]
	tr := &trace.Trace{ID: 9}
	tr.SetFocus(len(hs) - 1)
	d.LookupHeaderBatchTraced(tr, hs, nil)
	want := tr.SpanCount()
	if want == 0 {
		t.Fatal("traced batch recorded no spans")
	}
	classifyKey(d, headerKey(d, hs[0]))
	d.Lookup(hs[0])
	d.LookupHeaderBatch(hs, nil)
	if got := tr.SpanCount(); got != want {
		t.Fatalf("untraced lookups added %d spans to a finished trace", got-want)
	}
}

// TestTracedEntryPointAllocFree extends the PR-2 zero-allocation
// guarantee to the traced entry point when no trace is in flight — the
// only state the steady-state hot path ever sees.
func TestTracedEntryPointAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	d, headers := loadedDevice(t, 100)
	results := make([]LookupResult, 0, len(headers))
	d.LookupHeaderBatch(headers, results[:0]) // warm scratch
	if n := testing.AllocsPerRun(20, func() {
		results = d.LookupHeaderBatchTraced(nil, headers, results[:0])
	}); n != 0 {
		t.Errorf("LookupHeaderBatchTraced(nil, ...) allocates %.1f/op", n)
	}
}
