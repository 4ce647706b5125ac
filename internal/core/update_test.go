package core

import (
	"errors"
	"testing"

	"catcam/internal/telemetry"
	"catcam/internal/ternary"
)

// Every update entry point runs through the one bracket (Device.update),
// so each request — accepted or rejected — publishes exactly one epoch,
// finishes exactly one update trace, ending in that publish, whose step
// cycles sum to the cost it reported, lands exactly once in telemetry
// (an event, or an error count), and leaves no trace in flight.
func TestUpdateBracketOncePerRequest(t *testing.T) {
	// A 2×2 device holding priorities 10, 20 | 30 (one free slot), or
	// 10, 20 | 30, 40 (full, no free subtable) for the rejected inserts.
	for _, c := range []struct {
		name    string
		full    bool
		op      string              // the update trace's op name
		kind    telemetry.EventKind // the request's own event; its name is the op label
		run     func(d *Device) (UpdateResult, error)
		wantErr error
	}{
		{"insert", false, "insert", telemetry.EvInsert, func(d *Device) (UpdateResult, error) {
			return d.InsertRule(telRule(9, 35))
		}, nil},
		{"insert/full", true, "insert", telemetry.EvInsert, func(d *Device) (UpdateResult, error) {
			return d.InsertRule(telRule(9, 35))
		}, ErrFull},
		{"insert_word", false, "insert_word", telemetry.EvInsert, func(d *Device) (UpdateResult, error) {
			return d.InsertWord(ternary.MustParse("1***"), 35, 9, 9)
		}, nil},
		{"insert_word/full", true, "insert_word", telemetry.EvInsert, func(d *Device) (UpdateResult, error) {
			return d.InsertWord(ternary.MustParse("1***"), 35, 9, 9)
		}, ErrFull},
		{"delete", false, "delete", telemetry.EvDelete, func(d *Device) (UpdateResult, error) {
			return d.DeleteRule(1)
		}, nil},
		{"delete/unknown", false, "delete", telemetry.EvDelete, func(d *Device) (UpdateResult, error) {
			return d.DeleteRule(77)
		}, ErrNotFound},
		{"modify", false, "modify", telemetry.EvModify, func(d *Device) (UpdateResult, error) {
			return d.ModifyRule(1, telRule(1, 15))
		}, nil},
		// The delete phase frees a slot below, the new version targets
		// the full subtable above: one delete cycle, then ErrFull.
		{"modify/full", true, "modify", telemetry.EvModify, func(d *Device) (UpdateResult, error) {
			return d.ModifyRule(1, telRule(1, 35))
		}, ErrFull},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, tt, _, _ := instrumented(Config{Subtables: 2, SubtableCapacity: 2, KeyWidth: 160})
			reg := telemetry.NewRegistry()
			ring := telemetry.NewEventRing(64)
			d.AttachTelemetry(reg, ring, nil)
			n := 3
			if c.full {
				n = 4
			}
			for i := 1; i <= n; i++ {
				if _, err := d.InsertRule(telRule(i, 10*i)); err != nil {
					t.Fatal(err)
				}
			}
			errKey := `catcam_update_errors_total{op="` + c.kind.String() + `"}`
			epoch0, traces0 := d.Epoch(), tt.Total()
			events0, errs0 := ring.Total(), reg.Snapshot().Counters[errKey]

			res, err := c.run(d)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}

			if got := d.Epoch() - epoch0; got != 1 {
				t.Errorf("published %d epochs, want 1", got)
			}
			if got := tt.Total() - traces0; got != 1 {
				t.Fatalf("finished %d traces, want 1", got)
			}
			all := tt.Snapshot()
			tr := all[len(all)-1]
			if tr.Kind != c.op || (tr.Err != "") != (err != nil) {
				t.Errorf("trace op %q err %q, want op %q, failed=%v", tr.Kind, tr.Err, c.op, err != nil)
			}
			checkUpdateTrace(t, tr)
			if tr.Cycles != res.Cycles || tr.SpanCycles() != res.Cycles {
				t.Errorf("trace cycles %d, steps sum %d, result %d: %+v",
					tr.Cycles, tr.SpanCycles(), res.Cycles, tr.Spans)
			}
			own := 0
			evs := ring.Snapshot()
			for _, e := range evs[len(evs)-int(ring.Total()-events0):] {
				if e.Kind == c.kind {
					own++
				}
			}
			errs := reg.Snapshot().Counters[errKey] - errs0
			if wantEv, wantErrs := btoi(err == nil), uint64(btoi(err != nil)); own != wantEv || errs != wantErrs {
				t.Errorf("telemetry saw %d %v events and %d errors, want %d and %d",
					own, c.kind, errs, wantEv, wantErrs)
			}
			d.mu.Lock()
			inFlight := d.trace
			d.mu.Unlock()
			if inFlight != nil {
				t.Error("trace still in flight after the request returned")
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
