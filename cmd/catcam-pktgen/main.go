// Command catcam-pktgen generates deterministic packet traces for the
// ingress front end: a classbench-style ruleset, a flow universe drawn
// against it, and Zipf-distributed packet draws over that universe,
// written in the replayable trace format internal/ingress defines.
//
//	catcam-pktgen -family acl -rules 1000 -flows 100000 -packets 1000000 \
//	    -zipf-s 1.2 -out acl.catp
//	catcam-pktgen -summarize acl.catp
//
// The same flags always produce byte-identical traces, so a committed
// (family, sizes, seed) tuple is as reproducible as committing the
// trace itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"catcam/internal/classbench"
	"catcam/internal/ingress"
	"catcam/internal/rules"
)

func main() {
	family := flag.String("family", "acl", "ruleset family: acl, fw, or ipc")
	nRules := flag.Int("rules", 1000, "ruleset size the flow universe is drawn against")
	nFlows := flag.Int("flows", 100000, "distinct flows in the universe")
	nPackets := flag.Int("packets", 1000000, "packets to draw")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew exponent (<= 1 means uniform)")
	locality := flag.Float64("locality", 0.8, "fraction of flows constructed to match a rule")
	seed := flag.Int64("seed", 1, "deterministic seed for ruleset, universe, and draws")
	out := flag.String("out", "", "output trace path (required unless -summarize)")
	summarize := flag.String("summarize", "", "read this trace and print its flow statistics instead of generating")
	flag.Parse()

	if *summarize != "" {
		hs, err := ingress.ReadTraceFile(*summarize)
		if err != nil {
			fatal(err)
		}
		printStats(*summarize, hs)
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-out is required (or use -summarize)"))
	}
	fam, err := classbench.ParseFamily(*family)
	if err != nil {
		fatal(err)
	}

	rs := classbench.Generate(classbench.Config{Family: fam, Size: *nRules, Seed: *seed})
	gen := ingress.NewGenerator(rs, ingress.GenConfig{
		Flows: *nFlows, ZipfS: *zipfS, Locality: *locality, Seed: *seed,
	})
	hs := make([]rules.Header, *nPackets)
	gen.Fill(hs)
	if err := ingress.WriteTraceFile(*out, hs); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d packets over %d-rule %s ruleset (zipf-s %.2f, %d-flow universe, seed %d)\n",
		*out, len(hs), *nRules, strings.ToLower(*family), *zipfS, *nFlows, *seed)
	printStats(*out, hs)
}

// printStats reports the distributional facts that matter for a flow
// cache: distinct flows seen and how concentrated the stream is.
func printStats(name string, hs []rules.Header) {
	counts := make(map[rules.Header]int)
	for _, h := range hs {
		counts[h]++
	}
	top := make([]int, 0, len(counts))
	for _, n := range counts {
		top = append(top, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(top)))
	cum := 0
	k := 10
	if k > len(top) {
		k = len(top)
	}
	for _, n := range top[:k] {
		cum += n
	}
	fmt.Printf("%s: %d packets, %d distinct flows; top-%d flows carry %.1f%% of packets\n",
		name, len(hs), len(counts), k, 100*float64(cum)/float64(max(len(hs), 1)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catcam-pktgen:", err)
	os.Exit(1)
}
