// Package classbench generates synthetic packet-classification rulesets
// and traces in the spirit of ClassBench (Taylor & Turner, ToN 2007).
//
// The original ClassBench derives statistical profiles from real filter
// sets and replays them. Those seed files are not redistributable, so
// this package substitutes hand-written profiles for the three family
// types the paper evaluates — Access Control List (ACL), Firewall (FW)
// and IP Chain (IPC) — that reproduce the properties the experiments are
// sensitive to:
//
//   - prefix-length distributions per family (ACL rules are specific,
//     FW rules are wildcard-heavy, IPC sits between);
//   - structural overlap: rules draw source/destination prefixes from
//     shared pools, nesting shorter prefixes under longer ones, which is
//     what creates dependency chains for TCAM update algorithms;
//   - port-range usage (exact ports, the well-known >1023 range, narrow
//     ranges) driving range-to-prefix expansion;
//   - a 16-bit priority field per rule (the OpenFlow priority width the
//     paper's priority store uses), descending in file order like a
//     first-match ACL.
//
// Everything is seeded and deterministic.
package classbench

import (
	"fmt"
	"math/rand"
	"strings"

	"catcam/internal/rules"
)

// Family identifies a ruleset family.
type Family int

// Ruleset families evaluated in the paper.
const (
	ACL Family = iota
	FW
	IPC
)

func (f Family) String() string {
	switch f {
	case ACL:
		return "ACL"
	case FW:
		return "FW"
	case IPC:
		return "IPC"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// Families lists all generated families in paper order.
func Families() []Family { return []Family{ACL, FW, IPC} }

// ParseFamily returns the family named s, ignoring case.
func ParseFamily(s string) (Family, error) {
	names := make([]string, 0, len(Families()))
	for _, f := range Families() {
		if strings.EqualFold(s, f.String()) {
			return f, nil
		}
		names = append(names, f.String())
	}
	return 0, fmt.Errorf("unknown family %q (want %s)", s, strings.Join(names, ", "))
}

// profile captures the per-family generation parameters.
type profile struct {
	// srcLens / dstLens are weighted prefix-length buckets.
	srcLens, dstLens []lenBucket
	// pSrcWild / pDstWild: probability the prefix is fully wildcarded.
	pSrcWild, pDstWild float64
	// port behaviours, probabilities summing to <= 1; remainder = wildcard.
	pExactPort, pHighPorts, pNarrowRange float64
	// pProtoWild: probability the protocol byte is wildcarded.
	pProtoWild float64
	// poolFraction: fraction of distinct prefix pool size relative to
	// ruleset size; smaller pools mean more sharing and more overlap.
	poolFraction float64
	// pNest: probability a generated prefix is a refinement (longer
	// prefix) of an existing pool entry, creating dependency chains.
	pNest float64
}

func familyProfile(f Family) profile {
	switch f {
	case ACL:
		return profile{
			srcLens:  []lenBucket{{24, 0.35}, {32, 0.25}, {16, 0.2}, {28, 0.1}, {8, 0.1}},
			dstLens:  []lenBucket{{24, 0.4}, {32, 0.3}, {16, 0.15}, {28, 0.15}},
			pSrcWild: 0.08, pDstWild: 0.03,
			pExactPort: 0.5, pHighPorts: 0.12, pNarrowRange: 0.08,
			pProtoWild:   0.12,
			poolFraction: 0.12, pNest: 0.45,
		}
	case FW:
		return profile{
			srcLens:  []lenBucket{{16, 0.3}, {8, 0.25}, {24, 0.25}, {32, 0.2}},
			dstLens:  []lenBucket{{16, 0.3}, {24, 0.3}, {8, 0.2}, {32, 0.2}},
			pSrcWild: 0.3, pDstWild: 0.15,
			pExactPort: 0.25, pHighPorts: 0.3, pNarrowRange: 0.15,
			pProtoWild:   0.25,
			poolFraction: 0.12, pNest: 0.5,
		}
	case IPC:
		return profile{
			srcLens:  []lenBucket{{24, 0.3}, {32, 0.3}, {16, 0.25}, {8, 0.15}},
			dstLens:  []lenBucket{{24, 0.35}, {32, 0.25}, {16, 0.25}, {8, 0.15}},
			pSrcWild: 0.12, pDstWild: 0.08,
			pExactPort: 0.45, pHighPorts: 0.2, pNarrowRange: 0.1,
			pProtoWild:   0.15,
			poolFraction: 0.18, pNest: 0.4,
		}
	}
	panic(fmt.Sprintf("classbench: unknown family %d", int(f)))
}

type lenBucket struct {
	len    int
	weight float64
}

// Config parameterizes ruleset generation.
type Config struct {
	Family Family
	Size   int   // number of rules
	Seed   int64 // deterministic seed
}

// maxPriority is the top of the priority range: the 16-bit OpenFlow
// priority field.
const maxPriority = 65535

// Generate produces a synthetic ruleset. Rules are emitted in
// descending-priority order (like a first-match ACL file); IDs are
// 0..Size-1 in file order. Priorities are unique and spread across
// [1, maxPriority], or [1, Size] when Size exceeds it.
func Generate(cfg Config) *rules.Ruleset {
	if cfg.Size <= 0 {
		return &rules.Ruleset{}
	}
	maxPrio := maxPriority
	if maxPrio < cfg.Size {
		maxPrio = cfg.Size // keep priorities unique
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := familyProfile(cfg.Family)

	poolSize := int(float64(cfg.Size)*p.poolFraction) + 4
	srcPool := newPrefixPool(rng, p.srcLens, p.pNest, poolSize)
	dstPool := newPrefixPool(rng, p.dstLens, p.pNest, poolSize)

	// Unique priorities: sample Size distinct values in [1, maxPrio],
	// then sort descending for file order.
	prios := sampleDistinct(rng, cfg.Size, maxPrio)

	rs := &rules.Ruleset{Rules: make([]rules.Rule, 0, cfg.Size)}
	for i := 0; i < cfg.Size; i++ {
		r := rules.Rule{
			ID:       i,
			Priority: prios[i],
			Action:   i,
		}
		if rng.Float64() < p.pSrcWild {
			r.SrcIP = rules.Prefix{Len: 0}
		} else {
			r.SrcIP = srcPool.draw(rng)
		}
		if rng.Float64() < p.pDstWild {
			r.DstIP = rules.Prefix{Len: 0}
		} else {
			r.DstIP = dstPool.draw(rng)
		}
		r.SrcPort = drawPortRange(rng, p)
		r.DstPort = drawPortRange(rng, p)
		if rng.Float64() < p.pProtoWild {
			r.ProtoWildcard = true
		} else if rng.Float64() < 0.85 {
			// mostly TCP/UDP as in real filter sets
			if rng.Intn(2) == 0 {
				r.Proto = 6
			} else {
				r.Proto = 17
			}
		} else {
			r.Proto = uint8(rng.Intn(256))
		}
		rs.Rules = append(rs.Rules, r)
	}
	return rs
}

func drawPortRange(rng *rand.Rand, p profile) rules.PortRange {
	x := rng.Float64()
	switch {
	case x < p.pExactPort:
		// skew toward well-known service ports
		wellKnown := []uint16{80, 443, 22, 25, 53, 110, 123, 8080, 3306}
		if rng.Float64() < 0.7 {
			port := wellKnown[rng.Intn(len(wellKnown))]
			return rules.PortRange{Lo: port, Hi: port}
		}
		port := uint16(rng.Intn(65536))
		return rules.PortRange{Lo: port, Hi: port}
	case x < p.pExactPort+p.pHighPorts:
		return rules.PortRange{Lo: 1024, Hi: 0xFFFF}
	case x < p.pExactPort+p.pHighPorts+p.pNarrowRange:
		lo := uint16(rng.Intn(65000))
		span := uint16(rng.Intn(512) + 1)
		hi := lo + span
		if hi < lo {
			hi = 0xFFFF
		}
		return rules.PortRange{Lo: lo, Hi: hi}
	default:
		return rules.FullPortRange()
	}
}

// prefixPool holds a set of prefixes with deliberate nesting so drawn
// rules overlap and form dependency chains.
type prefixPool struct {
	prefixes []rules.Prefix
}

func newPrefixPool(rng *rand.Rand, lens []lenBucket, pNest float64, size int) *prefixPool {
	pool := &prefixPool{prefixes: make([]rules.Prefix, 0, size)}
	for i := 0; i < size; i++ {
		l := drawLen(rng, lens)
		var pf rules.Prefix
		if len(pool.prefixes) > 0 && rng.Float64() < pNest {
			// refine an existing prefix: keep its bits, extend randomly
			base := pool.prefixes[rng.Intn(len(pool.prefixes))]
			if l <= base.Len {
				l = base.Len + 4
				if l > 32 {
					l = 32
				}
			}
			addr := base.Addr | (rng.Uint32() >> uint(base.Len))
			pf = rules.Prefix{Addr: addr, Len: l}.Canonical()
		} else {
			pf = rules.Prefix{Addr: rng.Uint32(), Len: l}.Canonical()
		}
		pool.prefixes = append(pool.prefixes, pf)
	}
	return pool
}

func drawLen(rng *rand.Rand, lens []lenBucket) int {
	total := 0.0
	for _, b := range lens {
		total += b.weight
	}
	x := rng.Float64() * total
	for _, b := range lens {
		if x < b.weight {
			return b.len
		}
		x -= b.weight
	}
	return lens[len(lens)-1].len
}

func (p *prefixPool) draw(rng *rand.Rand) rules.Prefix {
	return p.prefixes[rng.Intn(len(p.prefixes))]
}

// sampleDistinct returns n distinct priorities from [1, max], in the
// (random) order they will be assigned to file positions.
func sampleDistinct(rng *rand.Rand, n, max int) []int {
	if n > max {
		panic(fmt.Sprintf("classbench: cannot sample %d distinct priorities from [1,%d]", n, max))
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := 1 + rng.Intn(max)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Op is an update-trace operation type.
type Op int

// Update operations.
const (
	OpInsert Op = iota
	OpDelete
)

func (o Op) String() string {
	if o == OpInsert {
		return "insert"
	}
	return "delete"
}

// Update is one entry of an update trace.
type Update struct {
	Op   Op
	Rule rules.Rule
}

// UpdateTrace builds a trace of n updates over the ruleset following the
// paper's methodology: rules are selected at random, insertions and
// deletions each account for half so the table size stays constant. The
// trace starts from a fully-loaded table: each delete removes a random
// live rule, each insert re-adds a previously deleted one (or a fresh
// clone with a new ID if none is pending).
func UpdateTrace(rs *rules.Ruleset, n int, seed int64) []Update {
	return updateTrace(rs, n, seed, false)
}

// UpdateTraceFresh is UpdateTrace except each reinserted rule draws a
// fresh random priority instead of reusing the deleted rule's. This
// models policy churn (new rules arriving at arbitrary priority levels)
// rather than flap (the same rule coming back): reinsertions then do
// not land in the hole their deletion left, which exercises the
// engines' placement machinery the way the paper's averages suggest.
func UpdateTraceFresh(rs *rules.Ruleset, n int, seed int64) []Update {
	return updateTrace(rs, n, seed, true)
}

func updateTrace(rs *rules.Ruleset, n int, seed int64, freshPriorities bool) []Update {
	rng := rand.New(rand.NewSource(seed))
	live := make([]rules.Rule, len(rs.Rules))
	copy(live, rs.Rules)
	var deleted []rules.Rule
	nextID := 0
	for _, r := range live {
		if r.ID >= nextID {
			nextID = r.ID + 1
		}
	}

	trace := make([]Update, 0, n)
	for len(trace) < n {
		doInsert := rng.Intn(2) == 0
		if doInsert && len(deleted) > 0 {
			i := rng.Intn(len(deleted))
			r := deleted[i]
			deleted[i] = deleted[len(deleted)-1]
			deleted = deleted[:len(deleted)-1]
			// Reinsertion gets a fresh ID so engines treat it as new.
			r.ID = nextID
			nextID++
			if freshPriorities {
				r.Priority = 1 + rng.Intn(maxPriority)
			}
			live = append(live, r)
			trace = append(trace, Update{Op: OpInsert, Rule: r})
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			r := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			deleted = append(deleted, r)
			trace = append(trace, Update{Op: OpDelete, Rule: r})
		}
	}
	return trace
}

// PacketTrace samples n headers. A fraction locality of headers is drawn
// to match a random live rule (with wildcard bits randomized); the rest
// are uniform random headers, standing in for background traffic.
func PacketTrace(rs *rules.Ruleset, n int, locality float64, seed int64) []rules.Header {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rules.Header, 0, n)
	for i := 0; i < n; i++ {
		if len(rs.Rules) > 0 && rng.Float64() < locality {
			r := rs.Rules[rng.Intn(len(rs.Rules))]
			out = append(out, headerMatching(rng, r))
		} else {
			out = append(out, rules.Header{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				Proto: uint8(rng.Intn(256)),
			})
		}
	}
	return out
}

func headerMatching(rng *rand.Rand, r rules.Rule) rules.Header {
	h := rules.Header{
		SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		Proto: uint8(rng.Intn(256)),
	}
	fix := func(p rules.Prefix, v uint32) uint32 {
		if p.Len == 0 {
			return v
		}
		shift := uint(32 - p.Len)
		return (p.Addr >> shift << shift) | (v & ((1 << shift) - 1))
	}
	h.SrcIP = fix(r.SrcIP, h.SrcIP)
	h.DstIP = fix(r.DstIP, h.DstIP)
	h.SrcPort = r.SrcPort.Lo + uint16(rng.Intn(int(r.SrcPort.Hi-r.SrcPort.Lo)+1))
	h.DstPort = r.DstPort.Lo + uint16(rng.Intn(int(r.DstPort.Hi-r.DstPort.Lo)+1))
	if !r.ProtoWildcard {
		h.Proto = r.Proto
	}
	return h
}
