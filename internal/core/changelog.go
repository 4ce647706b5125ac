package core

import (
	"sync/atomic"

	"catcam/internal/rules"
)

// This file is the change log: one rule-level record per published
// epoch, kept in a fixed ring, so that a reader holding an answer from
// an older epoch can ask whether the epochs since could have changed
// it. An alteration touches O(1) rules (§IV, §VIII-A), so what an epoch
// changed is small and known when it is published; Revalidate reads
// those records instead of classifying again.
//
// Each slot is a seqlock over typed atomics. The writer — publishLocked,
// under d.mu — marks the slot busy, stores the record's words, then
// stamps the slot complete, all before it stores the epoch's snapshot:
// a reader that has seen epoch e can find e's record. A reader loads
// the stamp, the words, then the stamp again, and uses the words only
// when both loads name the epoch it asked for. A slot being overwritten,
// or already holding a later epoch's record, reads as missing, and a
// missing record makes the answer stale. Nothing allocates per update:
// the ring lives inside the Device.

// changeLogSize is K, how many epochs the log keeps: an answer stamped
// more than K epochs before the epoch it is revalidated at is stale.
const changeLogSize = 256

// What a change record says about its epoch, as flag bits.
const (
	changeAdded    uint64 = 1 << iota // the record's rule was added
	changeRemoved                     // the rule ID the record names was removed
	changeOpaque                      // no rule-level form: every answer across it is stale
	changeProtoAny                    // the added rule matches any protocol
)

// changeRecord is the rule-level effect of one update: a rule added, a
// rule ID removed, both for a modify, or neither for a publish that
// changed no rule (an attach, SetTraceLabels, a failed insert rolled
// back, a failed delete).
type changeRecord struct {
	flags   uint64
	added   rules.Rule
	removed int
}

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// add records r as added. A rule the log cannot pack exactly makes the
// record opaque.
func (c *changeRecord) add(r rules.Rule) {
	if !fits32(r.ID) || !fits32(r.Priority) || uint(r.SrcIP.Len) > 32 || uint(r.DstIP.Len) > 32 {
		c.flags |= changeOpaque
		return
	}
	c.flags |= changeAdded
	c.added = r
}

// remove records rule id as removed.
func (c *changeRecord) remove(id int) {
	if !fits32(id) {
		c.flags |= changeOpaque
		return
	}
	c.flags |= changeRemoved
	c.removed = id
}

// opaque records a change with no rule-level form: an InsertWord.
func (c *changeRecord) opaque() { c.flags |= changeOpaque }

// changeWords is a change record as the log packs it: four words,
// which Revalidate tests against a header without unpacking them.
type changeWords struct {
	rank  uint64 // added rule: Priority<<32 | ID, each as int32
	addrs uint64 // added rule: SrcIP.Addr<<32 | DstIP.Addr
	ports uint64 // added rule: SrcPort.Lo, SrcPort.Hi, DstPort.Lo, DstPort.Hi, 16 bits each
	misc  uint64 // removed ID<<32 (as int32) | flags<<24 | Proto<<16 | SrcIP.Len<<8 | DstIP.Len
}

// pack packs c; add and remove have made sure every field fits.
func (c changeRecord) pack() changeWords {
	r := c.added
	flags := c.flags
	if r.ProtoWildcard {
		flags |= changeProtoAny
	}
	return changeWords{
		rank:  uint64(uint32(int32(r.Priority)))<<32 | uint64(uint32(int32(r.ID))),
		addrs: uint64(r.SrcIP.Addr)<<32 | uint64(r.DstIP.Addr),
		ports: uint64(r.SrcPort.Lo)<<48 | uint64(r.SrcPort.Hi)<<32 | uint64(r.DstPort.Lo)<<16 | uint64(r.DstPort.Hi),
		misc:  uint64(uint32(int32(c.removed)))<<32 | flags<<24 | uint64(r.Proto)<<16 | uint64(r.SrcIP.Len)<<8 | uint64(r.DstIP.Len),
	}
}

// invalidates reports whether the change can alter the answer a lookup
// of h gave before it — the rule ranked winner when ok, no match when
// not: it has no rule-level form, it removed the winner, or it added a
// rule that does not lose to the winner (Rule.Before; any rule, after
// no match) and matches h (Rule.Matches), here tested on the packed
// fields.
//
//catcam:hotpath
func (w changeWords) invalidates(h rules.Header, winner Rank, ok bool) bool {
	flags := w.misc >> 24 & 0xff
	switch {
	case flags&changeOpaque != 0:
		return true
	case ok && flags&changeRemoved != 0 && int(int32(w.misc>>32)) == winner.RuleID:
		return true
	case flags&changeAdded == 0:
		return false
	}
	if prio, id := int(int32(w.rank>>32)), int(int32(w.rank)); ok &&
		(prio < winner.Priority || prio == winner.Priority && id < winner.RuleID) {
		return false // it loses to the winner wherever it matches
	}
	return prefixHolds(uint32(w.addrs>>32), uint(w.misc>>8&0xff), h.SrcIP) &&
		prefixHolds(uint32(w.addrs), uint(w.misc&0xff), h.DstIP) &&
		uint16(w.ports>>48) <= h.SrcPort && h.SrcPort <= uint16(w.ports>>32) &&
		uint16(w.ports>>16) <= h.DstPort && h.DstPort <= uint16(w.ports) &&
		(flags&changeProtoAny != 0 || uint8(w.misc>>16) == h.Proto)
}

// prefixHolds is rules.Prefix.Contains for a length of at most 32.
func prefixHolds(addr uint32, length uint, ip uint32) bool {
	return length == 0 || (ip^addr)>>(32-length) == 0
}

// changeSlot is one slot of the ring. seq is the seqlock word: 0 when
// never written, logStamp(e)|1 while epoch e's record is being written,
// logStamp(e) once it is whole. The other four words are the record's
// changeWords.
type changeSlot struct {
	seq                      atomic.Uint64
	rank, addrs, ports, misc atomic.Uint64
}

// changeLog is the ring: epoch e's record lives in slot e%changeLogSize.
type changeLog [changeLogSize]changeSlot

// logStamp is the seqlock value of epoch e's whole record; never 0.
func logStamp(e uint64) uint64 { return (e + 1) << 1 }

// write stores c as epoch's record. Caller holds d.mu and has not yet
// published epoch.
func (l *changeLog) write(epoch uint64, c changeRecord) {
	s := &l[epoch%changeLogSize]
	stamp := logStamp(epoch)
	w := c.pack()
	s.seq.Store(stamp | 1)
	s.rank.Store(w.rank)
	s.addrs.Store(w.addrs)
	s.ports.Store(w.ports)
	s.misc.Store(w.misc)
	s.seq.Store(stamp)
}

// read returns epoch's record, or false when its slot does not hold it
// whole: overwritten by a later epoch, being overwritten, or never
// written.
//
//catcam:hotpath
func (l *changeLog) read(epoch uint64) (changeWords, bool) {
	s := &l[epoch%changeLogSize]
	stamp := logStamp(epoch)
	if s.seq.Load() != stamp {
		return changeWords{}, false
	}
	w := changeWords{rank: s.rank.Load(), addrs: s.addrs.Load(), ports: s.ports.Load(), misc: s.misc.Load()}
	if s.seq.Load() != stamp {
		return changeWords{}, false
	}
	return w, true
}

// Revalidate reports whether the answer a lookup of h returned at epoch
// stamp is still the answer at epoch: the rule ranked winner when ok,
// no match when not. Only winner's Priority and RuleID are read. The
// answer is stale when a change in stamp+1 … epoch removed the winner,
// added a rule that matches h and does not lose to the winner (any rule
// that matches h, after no match), or has no rule-level form; and when
// a record is missing — epoch is more than K epochs after stamp, or a
// slot was overwritten while it was read. epoch must be no later than
// Epoch(). Lock-free and allocation-free.
//
//catcam:hotpath
func (d *Device) Revalidate(h rules.Header, stamp, epoch uint64, winner Rank, ok bool) bool {
	if stamp > epoch || epoch-stamp > changeLogSize {
		return false
	}
	for e := stamp + 1; e <= epoch; e++ {
		if w, whole := d.log.read(e); !whole || w.invalidates(h, winner, ok) {
			return false
		}
	}
	return true
}
