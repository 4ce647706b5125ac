package ingress

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"catcam/internal/rules"
)

// FuzzReadTrace feeds ReadTrace hostile trace files. Whatever the bytes
// say: no panic; memory in proportion to the bytes that arrived, never
// to the packet count the header claims; an accepted trace is exactly
// the file WriteTrace would have produced for it (the two reserved
// bytes aside); and the sized reader ReadTraceFile uses agrees with the
// streaming one.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []rules.Header{hdr(1), hdr(2), hdr(3)}); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), good...))
	}
	f.Add(good)
	f.Add(mutate(func(b []byte) []byte { // a bare header declaring 2^32 packets
		binary.LittleEndian.PutUint64(b[8:16], 1<<32)
		return b[:headerSize]
	}))
	f.Add(mutate(func(b []byte) []byte { return b[:len(b)-3] })) // truncated last record
	f.Add(mutate(func(b []byte) []byte { return append(b, 0) })) // one trailing byte
	f.Add(mutate(func(b []byte) []byte { copy(b, "NOPE"); return b }))
	f.Add(mutate(func(b []byte) []byte { b[4] = 99; return b })) // bad version

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hs, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 1 MiB of headers and the read buffer up front, then append's
		// doubling over the records actually present.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+8*len(data)); got > bound {
			t.Fatalf("ReadTrace allocated %d bytes for %d bytes of input (bound %d)", got, len(data), bound)
		}
		sized, serr := readTrace(bytes.NewReader(data), uint64(max(len(data)-headerSize, 0))/recordSize)
		if (err == nil) != (serr == nil) {
			t.Fatalf("streaming reader: %v, sized reader: %v", err, serr)
		}
		if err != nil {
			if hs != nil || sized != nil {
				t.Fatalf("a rejected trace returned packets: %d, %d", len(hs), len(sized))
			}
			return
		}
		var back bytes.Buffer
		if err := WriteTrace(&back, hs); err != nil {
			t.Fatal(err)
		}
		if w := back.Bytes(); len(w) != len(data) || !bytes.Equal(w[:6], data[:6]) || !bytes.Equal(w[8:], data[8:]) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(w))
		}
		if len(sized) != len(hs) {
			t.Fatalf("sized reader returned %d packets, streaming %d", len(sized), len(hs))
		}
		for i := range hs {
			if sized[i] != hs[i] {
				t.Fatalf("packet %d: sized reader %v, streaming %v", i, sized[i], hs[i])
			}
		}
	})
}
