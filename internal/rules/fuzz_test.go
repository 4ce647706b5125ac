package rules

import (
	"testing"

	"catcam/internal/ternary"
)

// FuzzRangeToPrefixes verifies the cover is exact at fuzzer-chosen
// probe points.
func FuzzRangeToPrefixes(f *testing.F) {
	f.Add(uint16(0), uint16(65535), uint16(80))
	f.Add(uint16(1024), uint16(65535), uint16(1023))
	f.Add(uint16(80), uint16(80), uint16(80))
	f.Fuzz(func(t *testing.T, lo, hi, probe uint16) {
		r := PortRange{Lo: lo, Hi: hi}
		prefixes := RangeToPrefixes(r)
		if !r.Valid() {
			if prefixes != nil {
				t.Fatal("invalid range produced prefixes")
			}
			return
		}
		covered := false
		for _, p := range prefixes {
			if p.Contains(probe) {
				covered = true
				break
			}
		}
		if covered != r.Contains(probe) {
			t.Fatalf("range [%d,%d] probe %d: cover=%v semantic=%v",
				lo, hi, probe, covered, r.Contains(probe))
		}
		// Minimality sanity: never more than 2*16-2 prefixes.
		if len(prefixes) > 30 {
			t.Fatalf("range [%d,%d] expanded to %d prefixes", lo, hi, len(prefixes))
		}
	})
}

// FuzzEncodeMatches verifies that ternary encoding agrees with rule
// semantics on fuzzer-chosen rules and headers, every field fuzzed: both
// prefixes (lengths folded into 0..32), both port ranges (a reversed
// range is swapped), the protocol and its wildcard. It checks Encode's
// TupleBits-wide words against the header's TupleBits-wide key, and
// EncodeWidth(160)'s words, a device's width with the port predicate
// columns, against the header's 160-wide key, both against Rule.Matches.
// The wide cover is never longer than the flat one and, when neither
// port field takes a predicate row, is the flat cover word for word,
// each word its Encode counterpart widened by Slot.
func FuzzEncodeMatches(f *testing.F) {
	f.Add(uint32(0x0A000000), uint8(8), uint32(0), uint8(0), uint16(80), uint16(443), uint16(0), uint16(65535), uint8(6), false,
		uint32(0x0A010203), uint32(0x01020304), uint16(80), uint16(9), uint8(6))
	f.Add(uint32(0xC0A80000), uint8(16), uint32(0x0A0A0A0A), uint8(32), uint16(1024), uint16(65535), uint16(1), uint16(1023), uint8(17), true,
		uint32(0xC0A80101), uint32(0x0A0A0A0A), uint16(2048), uint16(22), uint8(1))
	f.Add(uint32(0xFFFFFFFF), uint8(33), uint32(0x80000000), uint8(1), uint16(65535), uint16(0), uint16(7), uint16(7), uint8(255), false,
		uint32(0xFFFFFFFF), uint32(0x80000001), uint16(65535), uint16(7), uint8(255))
	f.Fuzz(func(t *testing.T, srcAddr uint32, srcLen uint8, dstAddr uint32, dstLen uint8,
		sLo, sHi, dLo, dHi uint16, proto uint8, protoWild bool,
		hSrc, hDst uint32, hSport, hDport uint16, hProto uint8) {
		if sLo > sHi {
			sLo, sHi = sHi, sLo
		}
		if dLo > dHi {
			dLo, dHi = dHi, dLo
		}
		r := Rule{
			ID: 1, Priority: 1,
			SrcIP:         Prefix{Addr: srcAddr, Len: int(srcLen % 33)}.Canonical(),
			DstIP:         Prefix{Addr: dstAddr, Len: int(dstLen % 33)}.Canonical(),
			SrcPort:       PortRange{Lo: sLo, Hi: sHi},
			DstPort:       PortRange{Lo: dLo, Hi: dHi},
			Proto:         proto,
			ProtoWildcard: protoWild,
		}
		words, wideWords := r.Encode(), r.EncodeWidth(160)
		if len(words) != r.ExpansionCount() || len(wideWords) != r.ExpansionCountWidth(160) {
			t.Fatalf("rule %v: Encode %d words, ExpansionCount %d; EncodeWidth %d, ExpansionCountWidth %d",
				r, len(words), r.ExpansionCount(), len(wideWords), r.ExpansionCountWidth(160))
		}
		// A field takes the predicate row iff its range ends at 65535 and
		// starts in (0, HighPorts].
		takesPredicate := func(p PortRange) bool { return p.Hi == 0xFFFF && p.Lo > 0 && p.Lo <= HighPorts }
		if len(wideWords) > len(words) {
			t.Fatalf("rule %v: EncodeWidth(160) %d words, more than Encode's %d", r, len(wideWords), len(words))
		}
		if !takesPredicate(r.SrcPort) && !takesPredicate(r.DstPort) {
			if len(wideWords) != len(words) {
				t.Fatalf("rule %v takes no predicate: EncodeWidth(160) %d words, Encode %d", r, len(wideWords), len(words))
			}
			for i, w := range words {
				padded := ternary.NewWord(160)
				padded.Slot(0, w)
				if !wideWords[i].Equal(padded) {
					t.Fatalf("rule %v word %d: EncodeWidth %s, Encode widened %s", r, i, wideWords[i], padded)
				}
			}
		}
		// The fuzzed header, and one moved inside the rule field by field,
		// which the rule must match.
		inside := Header{
			SrcIP:   r.SrcIP.Addr | hSrc&^prefixMask(r.SrcIP.Len),
			DstIP:   r.DstIP.Addr | hDst&^prefixMask(r.DstIP.Len),
			SrcPort: sLo + uint16(uint32(hSport)%(uint32(sHi-sLo)+1)),
			DstPort: dLo + uint16(uint32(hDport)%(uint32(dHi-dLo)+1)),
			Proto:   proto,
		}
		if protoWild {
			inside.Proto = hProto
		}
		for _, h := range []Header{{SrcIP: hSrc, DstIP: hDst, SrcPort: hSport, DstPort: hDport, Proto: hProto}, inside} {
			key := EncodeHeader(h)
			wide := ternary.NewKey(160)
			EncodeHeaderInto(&wide, h)
			matched, wideMatched := false, false
			for _, w := range words {
				matched = matched || w.Match(key)
			}
			for _, w := range wideWords {
				wideMatched = wideMatched || w.Match(wide)
			}
			if want := r.Matches(h); matched != want || wideMatched != want {
				t.Fatalf("encode/semantic mismatch: rule %v header %+v Encode=%v EncodeWidth=%v want=%v",
					r, h, matched, wideMatched, want)
			}
		}
		if !r.Matches(inside) {
			t.Fatalf("rule %v does not match header %+v built inside it", r, inside)
		}
	})
}

// prefixMask returns the mask of an IPv4 prefix of length n's
// significant bits.
func prefixMask(n int) uint32 {
	if n == 0 {
		return 0
	}
	return ^uint32(0) << (32 - n)
}
