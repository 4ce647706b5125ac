package core

import (
	"errors"
	"testing"

	"catcam/internal/rules"
	"catcam/internal/telemetry"
	"catcam/internal/ternary"
)

// Every update entry point runs through the one bracket (Device.update),
// so each request — accepted or rejected — publishes exactly one epoch,
// finishes exactly one update trace, ending in that publish, whose step
// cycles sum to the cost it reported, lands exactly once in telemetry
// (one cycle observation in its op's series, or one error count), and
// leaves no trace in flight.
func TestUpdateBracketOncePerRequest(t *testing.T) {
	// A 2×2 device holding priorities 10, 20 | 30 (one free slot), or
	// 10, 20 | 30, 40 (full, no free subtable) for the rejected inserts.
	for _, c := range []struct {
		name    string
		full    bool
		op      string // the update trace's op name
		label   string // the op label of its telemetry series
		run     func(d *Device) (UpdateResult, error)
		wantErr error
	}{
		{"insert", false, "insert", "insert", func(d *Device) (UpdateResult, error) {
			return d.InsertRule(telRule(9, 35))
		}, nil},
		{"insert/full", true, "insert", "insert", func(d *Device) (UpdateResult, error) {
			return d.InsertRule(telRule(9, 35))
		}, ErrFull},
		// A 4-row rule: the first row takes the free slot, the second
		// finds no room, and the rollback deletes the first.
		{"insert/rolled back", false, "insert", "insert", func(d *Device) (UpdateResult, error) {
			r := telRule(9, 35)
			r.DstPort = rules.PortRange{Lo: 1, Hi: 6}
			return d.InsertRule(r)
		}, ErrFull},
		{"insert_word", false, "insert_word", "insert", func(d *Device) (UpdateResult, error) {
			return d.InsertWord(ternary.MustParse("1***"), 35, 9, 9)
		}, nil},
		{"insert_word/full", true, "insert_word", "insert", func(d *Device) (UpdateResult, error) {
			return d.InsertWord(ternary.MustParse("1***"), 35, 9, 9)
		}, ErrFull},
		{"delete", false, "delete", "delete", func(d *Device) (UpdateResult, error) {
			return d.DeleteRule(1)
		}, nil},
		{"delete/unknown", false, "delete", "delete", func(d *Device) (UpdateResult, error) {
			return d.DeleteRule(77)
		}, ErrNotFound},
		{"modify", false, "modify", "modify", func(d *Device) (UpdateResult, error) {
			return d.ModifyRule(1, telRule(1, 15))
		}, nil},
		// The new version targets the full subtable above, with no free
		// subtable to evict into, before the old one is deleted: ErrFull
		// at no cycle, the old version still stored.
		{"modify/full", true, "modify", "modify", func(d *Device) (UpdateResult, error) {
			return d.ModifyRule(1, telRule(1, 35))
		}, ErrFull},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, tt, _, _ := instrumented(Config{Subtables: 2, SubtableCapacity: 2, KeyWidth: 160})
			reg := telemetry.NewRegistry()
			d.AttachTelemetry(reg, nil, nil)
			n := 3
			if c.full {
				n = 4
			}
			for i := 1; i <= n; i++ {
				if _, err := d.InsertRule(telRule(i, 10*i)); err != nil {
					t.Fatal(err)
				}
			}
			// observed reads the request's own cycle series, all of them
			// together, and its error counter.
			observed := func() (own, total, errs uint64) {
				snap := reg.Snapshot()
				for _, l := range opLabels {
					n := snap.Histograms[`catcam_update_cycles{op="`+l+`"}`].Count
					total += n
					if l == c.label {
						own = n
					}
				}
				return own, total, snap.Counters[`catcam_update_errors_total{op="`+c.label+`"}`]
			}
			epoch0, traces0 := d.Epoch(), tt.Total()
			own0, total0, errs0 := observed()

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
			own, total, errs := observed()
			want := uint64(btoi(err == nil))
			if own-own0 != want || total-total0 != want || errs-errs0 != 1-want {
				t.Errorf("telemetry saw %d %s observations (%d in all series) and %d errors, want %d, %d and %d",
					own-own0, c.label, total-total0, errs-errs0, want, want, 1-want)
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
