package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenQuickSweep pins every figure catcam-bench prints — Fig 1,
// Tables I–V, Fig 15 and 16, the §VIII-A CPR breakdown, occupancy, the
// ablations, measured energy, telemetry and the RRAM projection — on
// the -quick sweep with 50 updates per Table III/IV cell, which runs the
// same code as the full matrix. A modelled figure that moves fails it.
// After a deliberate model change, regenerate the file with
//
//	go run ./cmd/catcam-bench -quick -updates 50 > cmd/catcam-bench/testdata/quick.golden
//
// and say in the commit which figures moved.
func TestGoldenQuickSweep(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, "all", true, 50, 200, false); err != nil {
		t.Fatal(err)
	}
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
