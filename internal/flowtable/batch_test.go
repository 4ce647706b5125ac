package flowtable

import (
	"testing"

	"catcam/internal/rules"
)

// batchHeaders exercises every path of the three-stage test pipeline:
// terminal drop at table 0, goto chains, miss-continue, and the
// terminal miss at table 2.
func batchHeaders() []rules.Header {
	return []rules.Header{
		{SrcIP: 0x0A666601},             // dropped by table 0
		{SrcIP: 0x0A010101},             // 0 -> 1 -> 2 -> action 7
		{SrcIP: 0xC0A80001},             // zone miss at 1, continue, hit 2
		{SrcIP: 0x0A666601, Proto: 6},   // still the bad /24
		{SrcIP: 0x0AFFFFFE, Proto: 17},  // zone 10/8 variant
		{SrcIP: 0x7F000001, SrcPort: 9}, // another miss-continue path
	}
}

func TestClassifyBatchMatchesClassify(t *testing.T) {
	p := buildPipeline(t)
	headers := batchHeaders()
	got := p.ClassifyBatch(nil, headers, nil)
	if len(got) != len(headers) {
		t.Fatalf("batch returned %d actions for %d headers", len(got), len(headers))
	}
	for i, h := range headers {
		want, _ := p.Classify(h)
		if got[i] != want {
			t.Errorf("header %d: ClassifyBatch = %d, Classify = %d", i, got[i], want)
		}
	}
	// Appending to a non-empty dst preserves the prefix.
	dst := []int{42}
	dst = p.ClassifyBatch(nil, headers[:2], dst)
	if dst[0] != 42 || len(dst) != 3 {
		t.Fatalf("dst prefix clobbered: %v", dst)
	}
}

func TestClassifyBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	p := buildPipeline(t)
	headers := batchHeaders()
	dst := make([]int, 0, len(headers))
	p.ClassifyBatch(nil, headers, dst[:0]) // warm up device scratch
	if n := testing.AllocsPerRun(20, func() {
		dst = p.ClassifyBatch(nil, headers, dst[:0])
	}); n != 0 {
		t.Errorf("ClassifyBatch allocates %.1f/op", n)
	}
}
