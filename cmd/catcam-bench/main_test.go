package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

// quickSweep is the -quick -updates 50 sweep with every input the
// ledger reads, computed once for all the tests below.
var quickSweep struct {
	once sync.Once
	r    *results
	err  error
}

func quickResults(t *testing.T) *results {
	t.Helper()
	quickSweep.once.Do(func() { quickSweep.r, quickSweep.err = compute("claims", true, 50) })
	if quickSweep.err != nil {
		t.Fatal(quickSweep.err)
	}
	return quickSweep.r
}

// TestPaperClaims evaluates every quick-scale row of the claims ledger:
// a model change that moves a paper claim fails here, by the claim's
// name.
func TestPaperClaims(t *testing.T) {
	r := quickResults(t)
	for _, c := range ledger {
		if c.full {
			continue
		}
		if measured, ok := c.check(r); !ok {
			t.Errorf("%s: measured %s, want %s (paper: %s)", c.name, measured, c.want, c.paper)
		}
	}
}

// TestExperimentsQuotesLedger checks that EXPERIMENTS.md quotes the
// measured value of every quick-scale row, in the row's format.
func TestExperimentsQuotesLedger(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r := quickResults(t)
	for _, c := range ledger {
		if c.full {
			continue
		}
		if measured, _ := c.check(r); !bytes.Contains(doc, []byte(measured)) {
			t.Errorf("%s: EXPERIMENTS.md does not quote the measured %q", c.name, measured)
		}
	}
}

// TestGoldenQuickSweep pins every figure catcam-bench prints — Fig 1,
// Tables I–V, Fig 15 and 16, the §VIII-A CPR breakdown, occupancy, the
// ablations, measured energy, telemetry and the RRAM projection — on
// the -quick sweep with 50 updates per Table III/IV cell, which runs the
// same code as the full matrix. The claims ledger says which paper
// claims a difference touches; this test catches the rest.
// After a deliberate model change, regenerate the file with
//
//	go run ./cmd/catcam-bench -quick -updates 50 > cmd/catcam-bench/testdata/quick.golden
//
// and say in the commit which figures moved.
func TestGoldenQuickSweep(t *testing.T) {
	var got bytes.Buffer
	writeSections(&got, quickResults(t), "all")
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs from testdata/quick.golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/quick.golden %d", len(gl), len(wl))
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "bogus", true, 50)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range []string{`"bogus"`, "claims", "fig1a", "rram"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed %d bytes before failing", out.Len())
	}
}
