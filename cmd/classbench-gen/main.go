// Command classbench-gen emits synthetic ClassBench-style rulesets,
// update traces and packet traces as text, for inspection or for
// feeding external tools.
//
// Usage:
//
//	classbench-gen -family ACL -size 1000 -seed 7 [-updates 100] [-packets 100]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"catcam/internal/classbench"
)

func main() {
	family := flag.String("family", "ACL", "ruleset family: ACL, FW or IPC")
	size := flag.Int("size", 1000, "number of rules")
	seed := flag.Int64("seed", 1, "generator seed")
	updates := flag.Int("updates", 0, "also emit an update trace of this length")
	packets := flag.Int("packets", 0, "also emit a packet trace of this length")
	stats := flag.Bool("stats", false, "emit structural statistics instead of rules")
	flag.Parse()

	fam, err := classbench.ParseFamily(*family)
	if err != nil {
		fmt.Fprintf(os.Stderr, "classbench-gen: %v\n", err)
		os.Exit(1)
	}

	rs := classbench.Generate(classbench.Config{Family: fam, Size: *size, Seed: *seed})
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *stats {
		fmt.Fprintf(w, "# %s ruleset, %d rules, seed %d\n", fam, *size, *seed)
		fmt.Fprint(w, classbench.Analyze(rs))
		return
	}

	fmt.Fprintf(w, "# %s ruleset, %d rules, seed %d\n", fam, *size, *seed)
	for _, r := range rs.Rules {
		fmt.Fprintln(w, r)
	}
	if *updates > 0 {
		fmt.Fprintf(w, "# update trace, %d entries\n", *updates)
		for _, u := range classbench.UpdateTrace(rs, *updates, *seed+1) {
			fmt.Fprintf(w, "%s %s\n", u.Op, u.Rule)
		}
	}
	if *packets > 0 {
		fmt.Fprintf(w, "# packet trace, %d headers\n", *packets)
		for _, h := range classbench.PacketTrace(rs, *packets, 0.9, *seed+2) {
			fmt.Fprintf(w, "%d.%d.%d.%d -> %d.%d.%d.%d sport %d dport %d proto %d\n",
				byte(h.SrcIP>>24), byte(h.SrcIP>>16), byte(h.SrcIP>>8), byte(h.SrcIP),
				byte(h.DstIP>>24), byte(h.DstIP>>16), byte(h.DstIP>>8), byte(h.DstIP),
				h.SrcPort, h.DstPort, h.Proto)
		}
	}
}
