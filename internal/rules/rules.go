// Package rules models packet-classification rules and packet headers.
//
// A rule is the classic 5-tuple used by ClassBench and OpenFlow-style
// tables: source/destination IPv4 prefixes, source/destination port
// ranges, and a protocol byte (exact or wildcard), plus a priority. A
// ruleset maps each incoming header to the action of the highest-priority
// matching rule.
//
// TCAMs store ternary strings, not ranges, so port ranges are expanded
// into a minimal cover of prefix-style ternary words (the "inflation due
// to range expansion" the paper excludes from its occupancy numbers).
// Encode performs this expansion and concatenates the per-field
// encodings into fixed-width ternary words.
package rules

import (
	"fmt"

	"catcam/internal/ternary"
)

// Field widths of the encoded 5-tuple, most significant first.
const (
	SrcIPBits   = 32
	DstIPBits   = 32
	SrcPortBits = 16
	DstPortBits = 16
	ProtoBits   = 8

	// TupleBits is the total encoded width of a 5-tuple rule.
	TupleBits = SrcIPBits + DstIPBits + SrcPortBits + DstPortBits + ProtoBits
)

// Field offsets within the encoded word.
const (
	srcIPOff   = 0
	dstIPOff   = srcIPOff + SrcIPBits
	srcPortOff = dstIPOff + DstIPBits
	dstPortOff = srcPortOff + SrcPortBits
	protoOff   = dstPortOff + DstPortBits

	// The port predicate columns, just below the tuple: a key's bit is
	// 1 when the header's source (destination) port is HighPorts or
	// more. Each is a function of the header alone.
	srcHighOff = TupleBits
	dstHighOff = TupleBits + 1
)

// Port predicates: a key at least PredicateWidth wide spends two of its
// spare positions on "src port ≥ HighPorts" and "dst port ≥ HighPorts",
// so that a range ending at 65535 and starting at or below HighPorts —
// ClassBench's 1024-65535 is the common one — needs one row for its
// upper part instead of a prefix per power-of-two block.
const (
	HighPorts      = 1024
	PredicateWidth = TupleBits + 2
)

// PortRange is an inclusive [Lo, Hi] range over 16-bit ports.
type PortRange struct {
	Lo, Hi uint16
}

// FullPortRange matches every port.
func FullPortRange() PortRange { return PortRange{0, 0xFFFF} }

// Contains reports whether p lies in the range.
func (r PortRange) Contains(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// IsFull reports whether the range covers all ports.
func (r PortRange) IsFull() bool { return r.Lo == 0 && r.Hi == 0xFFFF }

// Valid reports whether Lo <= Hi.
func (r PortRange) Valid() bool { return r.Lo <= r.Hi }

func (r PortRange) String() string {
	if r.IsFull() {
		return "*"
	}
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// Prefix is an IPv4 prefix: the top Len bits of Addr are significant.
type Prefix struct {
	Addr uint32
	Len  int // 0..32
}

// Contains reports whether ip falls under the prefix.
func (p Prefix) Contains(ip uint32) bool {
	if p.Len == 0 {
		return true
	}
	shift := uint(32 - p.Len)
	return ip>>shift == p.Addr>>shift
}

// Canonical returns the prefix with bits below Len cleared.
func (p Prefix) Canonical() Prefix {
	if p.Len <= 0 {
		return Prefix{0, 0}
	}
	if p.Len >= 32 {
		return Prefix{p.Addr, 32}
	}
	mask := ^uint32(0) << uint(32-p.Len)
	return Prefix{p.Addr & mask, p.Len}
}

func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// Rule is one packet-classification rule. Priority follows the paper's
// convention: larger numbers mean higher priority. ID is a stable,
// unique identifier assigned by the ruleset owner; it doubles as the
// tie-breaker for equal priorities (larger ID, i.e. newer rule, wins).
type Rule struct {
	ID       int
	Priority int
	SrcIP    Prefix
	DstIP    Prefix
	SrcPort  PortRange
	DstPort  PortRange
	// Proto is the protocol byte; ProtoWildcard makes it match-all.
	Proto         uint8
	ProtoWildcard bool
	// Action is an opaque action identifier carried to the reporter.
	Action int
}

// Header is a packet header: the concrete 5-tuple under classification.
type Header struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Matches reports whether the rule matches the header, field by field.
// This is the ground-truth semantics every engine must agree with.
func (r Rule) Matches(h Header) bool {
	return r.SrcIP.Contains(h.SrcIP) &&
		r.DstIP.Contains(h.DstIP) &&
		r.SrcPort.Contains(h.SrcPort) &&
		r.DstPort.Contains(h.DstPort) &&
		(r.ProtoWildcard || r.Proto == h.Proto)
}

// Before reports whether r loses to o under the strict total order used
// across all engines: higher priority wins; equal priorities break by
// larger ID (the newer rule).
func (r Rule) Before(o Rule) bool {
	if r.Priority != o.Priority {
		return r.Priority < o.Priority
	}
	return r.ID < o.ID
}

func (r Rule) String() string {
	proto := "*"
	if !r.ProtoWildcard {
		proto = fmt.Sprintf("%d", r.Proto)
	}
	return fmt.Sprintf("rule %d prio %d: %s -> %s sport %s dport %s proto %s",
		r.ID, r.Priority, r.SrcIP, r.DstIP, r.SrcPort, r.DstPort, proto)
}

// Overlaps reports whether some header matches both rules. Two rules
// overlap iff every field pair intersects.
func (r Rule) Overlaps(o Rule) bool {
	return prefixesOverlap(r.SrcIP, o.SrcIP) &&
		prefixesOverlap(r.DstIP, o.DstIP) &&
		rangesOverlap(r.SrcPort, o.SrcPort) &&
		rangesOverlap(r.DstPort, o.DstPort) &&
		(r.ProtoWildcard || o.ProtoWildcard || r.Proto == o.Proto)
}

func prefixesOverlap(a, b Prefix) bool {
	min := a.Len
	if b.Len < min {
		min = b.Len
	}
	if min == 0 {
		return true
	}
	shift := uint(32 - min)
	return a.Addr>>shift == b.Addr>>shift
}

func rangesOverlap(a, b PortRange) bool {
	return a.Lo <= b.Hi && b.Lo <= a.Hi
}

// RangeToPrefixes returns the minimal set of (value, prefixLen) pairs
// whose union over 16-bit space equals [r.Lo, r.Hi]. This is the
// standard greedy largest-aligned-block expansion; a worst-case range
// expands to at most 2*16-2 = 30 prefixes.
func RangeToPrefixes(r PortRange) []Prefix16 {
	if !r.Valid() {
		return nil
	}
	var out []Prefix16
	lo, hi := uint32(r.Lo), uint32(r.Hi)
	for lo <= hi {
		// Largest power-of-two block aligned at lo that fits in [lo, hi].
		size := uint32(1)
		for {
			next := size << 1
			if next == 0 || lo&(next-1) != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		plen := 16
		for s := size; s > 1; s >>= 1 {
			plen--
		}
		out = append(out, Prefix16{Value: uint16(lo), Len: plen})
		lo += size
		if lo == 0 { // wrapped past 0xFFFF
			break
		}
	}
	return out
}

// Prefix16 is a prefix over the 16-bit port space.
type Prefix16 struct {
	Value uint16
	Len   int // 0..16
}

// Contains reports whether port p falls under the prefix.
func (p Prefix16) Contains(v uint16) bool {
	if p.Len == 0 {
		return true
	}
	shift := uint(16 - p.Len)
	return v>>shift == p.Value>>shift
}

// Encode expands the rule into one or more ternary words of width
// TupleBits. Multiple words arise only from port-range expansion; all
// expansion words carry the same priority and action. The word layout is
// srcIP | dstIP | srcPort | dstPort | proto, most significant first.
func (r Rule) Encode() []ternary.Word {
	return r.EncodeWidth(TupleBits)
}

// EncodeWidth is Encode into words width positions wide: the five fields
// fill the most significant TupleBits positions as Encode lays them out.
// At a width of PredicateWidth or more the next two positions are the
// port predicate columns (srcHighOff, dstHighOff): a port range
// [lo, 65535] with 0 < lo ≤ HighPorts is covered by the prefixes of
// [lo, HighPorts-1] plus one row that sets its predicate column to 1 and
// wildcards the port's 16 bits, where a plain expansion needs up to 6
// more prefixes. Every other position is a wildcard, as a device wider
// than the tuple stores it. Each word is built once, field by field,
// word-wise.
func (r Rule) EncodeWidth(width int) []ternary.Word {
	if width < TupleBits {
		panic(fmt.Sprintf("rules: encode width %d below the tuple's %d", width, TupleBits))
	}
	protoLen := ProtoBits
	if r.ProtoWildcard {
		protoLen = 0
	}
	pred := width >= PredicateWidth
	sports, sHigh := portCover(r.SrcPort, pred)
	dports, dHigh := portCover(r.DstPort, pred)
	ns, nd := coverRows(sports, sHigh), coverRows(dports, dHigh)
	out := make([]ternary.Word, 0, ns*nd)
	for i := 0; i < ns; i++ {
		for j := 0; j < nd; j++ {
			w := ternary.NewWord(width)
			w.SetPrefix(srcIPOff, SrcIPBits, uint64(r.SrcIP.Addr), r.SrcIP.Len)
			w.SetPrefix(dstIPOff, DstIPBits, uint64(r.DstIP.Addr), r.DstIP.Len)
			setPortRow(&w, srcPortOff, srcHighOff, sports, i)
			setPortRow(&w, dstPortOff, dstHighOff, dports, j)
			w.SetPrefix(protoOff, ProtoBits, uint64(r.Proto), protoLen)
			out = append(out, w)
		}
	}
	return out
}

// portCover is one port field's cover: the prefixes of its range and,
// when high, one row more, the field's predicate row. The predicate
// serves a range [lo, 65535] with 0 < lo ≤ HighPorts, and only when
// pred (the key has the predicate columns); the prefixes then cover
// [lo, HighPorts-1].
func portCover(r PortRange, pred bool) (prefixes []Prefix16, high bool) {
	if pred && r.Hi == 0xFFFF && r.Lo > 0 && r.Lo <= HighPorts {
		return RangeToPrefixes(PortRange{Lo: r.Lo, Hi: HighPorts - 1}), true
	}
	return RangeToPrefixes(r), false
}

// coverRows is the number of rows a port cover expands to.
func coverRows(prefixes []Prefix16, high bool) int {
	if high {
		return len(prefixes) + 1
	}
	return len(prefixes)
}

// setPortRow writes row i of a port field's cover into w: prefix i into
// the 16-bit field at off (both port fields are SrcPortBits wide), or,
// past the prefixes, the predicate row, a 1 at highOff with the field's
// bits left wildcards.
func setPortRow(w *ternary.Word, off, highOff int, prefixes []Prefix16, i int) {
	if i == len(prefixes) {
		w.SetBit(highOff, ternary.One)
		return
	}
	w.SetPrefix(off, SrcPortBits, uint64(prefixes[i].Value), prefixes[i].Len)
}

// ExpansionCount returns how many ternary words Encode will produce,
// without building them.
func (r Rule) ExpansionCount() int {
	return r.ExpansionCountWidth(TupleBits)
}

// ExpansionCountWidth returns how many ternary words EncodeWidth(width)
// will produce, the entries the rule takes in a device of that key
// width, without building them.
func (r Rule) ExpansionCountWidth(width int) int {
	pred := width >= PredicateWidth
	sports, sHigh := portCover(r.SrcPort, pred)
	dports, dHigh := portCover(r.DstPort, pred)
	return coverRows(sports, sHigh) * coverRows(dports, dHigh)
}

// EncodeHeader returns the search key for a header, in the same layout
// as Encode.
func EncodeHeader(h Header) ternary.Key {
	k := ternary.NewKey(TupleBits)
	EncodeHeaderInto(&k, h)
	return k
}

// EncodeHeaderInto encodes a header into a caller-owned key of any width
// of TupleBits or more, the search key for words EncodeWidth built at
// that width, without allocating: the hot classify path reuses one
// device-width buffer per scratch. The tuple fills the top TupleBits
// positions; a key of PredicateWidth or more carries the two port
// predicates next; every other position is zeroed, so no prior zeroing
// is needed.
func EncodeHeaderInto(k *ternary.Key, h Header) {
	if k.Width() < TupleBits {
		panic(fmt.Sprintf("rules: encode buffer width %d below the tuple's %d", k.Width(), TupleBits))
	}
	// The tuple as a 104-bit number: lo holds proto, the ports and the
	// low 24 bits of the destination address, hi the rest.
	lo := uint64(h.DstIP)<<40 | uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Proto)
	hi := uint64(h.SrcIP)<<8 | uint64(h.DstIP)>>24
	n := TupleBits
	if k.Width() >= PredicateWidth {
		hi, lo = hi<<2|lo>>62, lo<<2|isHigh(h.SrcPort)<<1|isHigh(h.DstPort)
		n = PredicateWidth
	}
	k.LoadTop(hi, lo, n)
}

// isHigh is a port's predicate bit: 1 when the port is HighPorts or more.
func isHigh(p uint16) uint64 {
	if p >= HighPorts {
		return 1
	}
	return 0
}

// Ruleset is an ordered collection of rules with unique IDs.
type Ruleset struct {
	Rules []Rule
}

// ByID returns the rule with the given ID, or false.
func (s *Ruleset) ByID(id int) (Rule, bool) {
	for _, r := range s.Rules {
		if r.ID == id {
			return r, true
		}
	}
	return Rule{}, false
}

// Best returns the winning rule for h under the strict total order, or
// false if none matches. This linear scan is the reference semantics all
// classification engines are validated against.
func (s *Ruleset) Best(h Header) (Rule, bool) {
	var best Rule
	found := false
	for _, r := range s.Rules {
		if !r.Matches(h) {
			continue
		}
		if !found || best.Before(r) {
			best, found = r, true
		}
	}
	return best, found
}

// Validate checks ID uniqueness and field validity.
func (s *Ruleset) Validate() error {
	seen := make(map[int]bool, len(s.Rules))
	for _, r := range s.Rules {
		if seen[r.ID] {
			return fmt.Errorf("rules: duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = true
		if !r.SrcPort.Valid() || !r.DstPort.Valid() {
			return fmt.Errorf("rules: rule %d has invalid port range", r.ID)
		}
		if r.SrcIP.Len < 0 || r.SrcIP.Len > 32 || r.DstIP.Len < 0 || r.DstIP.Len > 32 {
			return fmt.Errorf("rules: rule %d has invalid prefix length", r.ID)
		}
	}
	return nil
}
