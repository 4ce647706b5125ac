package ingress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"catcam/internal/rules"
)

// Packet trace files give the ingress path a deterministic, replayable
// input: catcam-pktgen records a generator's output once, and every
// later run — a benchmark, a soak, a regression bisect — replays the
// identical packet sequence. The format is deliberately minimal:
//
//	offset  size  field
//	0       4     magic "CATP"
//	4       2     version (little-endian, currently 1)
//	6       2     reserved (zero)
//	8       8     packet count (little-endian)
//	16      13*n  records: srcIP u32, dstIP u32, srcPort u16,
//	              dstPort u16, proto u8 (all little-endian)
//
// 13 bytes per packet, fixed stride, so a trace is seekable by index
// and a million packets is ~12.4 MiB.

const (
	traceMagic   = "CATP"
	traceVersion = 1
	recordSize   = 13
	headerSize   = 16
)

// WriteTrace writes hs to w in the trace format.
func WriteTrace(w io.Writer, hs []rules.Header) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	copy(hdr[:4], traceMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], traceVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(hs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, h := range hs {
		binary.LittleEndian.PutUint32(rec[0:4], h.SrcIP)
		binary.LittleEndian.PutUint32(rec[4:8], h.DstIP)
		binary.LittleEndian.PutUint16(rec[8:10], h.SrcPort)
		binary.LittleEndian.PutUint16(rec[10:12], h.DstPort)
		rec[12] = h.Proto
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace from r, verifying magic, version, and that
// the byte stream carries exactly the declared packet count. The count
// is a claim until the records back it: at most 1 MiB of headers is
// allocated on the header's word, and the result grows from there with
// the records actually read.
func ReadTrace(r io.Reader) ([]rules.Header, error) {
	return readTrace(r, 1<<16)
}

// readTrace is ReadTrace allocating at most prealloc headers before a
// record has been read.
func readTrace(r io.Reader, prealloc uint64) ([]rules.Header, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("ingress: trace header: %w", err)
	}
	if string(hdr[:4]) != traceMagic {
		return nil, fmt.Errorf("ingress: bad trace magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != traceVersion {
		return nil, fmt.Errorf("ingress: unsupported trace version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	const maxTracePackets = 1 << 32 // refuse absurd counts outright
	if n > maxTracePackets {
		return nil, fmt.Errorf("ingress: trace declares %d packets (max %d)", n, uint64(maxTracePackets))
	}
	out := make([]rules.Header, 0, min(n, prealloc))
	var rec [recordSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("ingress: trace record %d of %d: %w", i, n, err)
		}
		out = append(out, rules.Header{
			SrcIP:   binary.LittleEndian.Uint32(rec[0:4]),
			DstIP:   binary.LittleEndian.Uint32(rec[4:8]),
			SrcPort: binary.LittleEndian.Uint16(rec[8:10]),
			DstPort: binary.LittleEndian.Uint16(rec[10:12]),
			Proto:   rec[12],
		})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("ingress: trailing bytes after %d records", n)
	}
	return out, nil
}

// WriteTraceFile writes hs to path (created or truncated).
func WriteTraceFile(path string, hs []rules.Header) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, hs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads the trace at path. A file's size bounds the
// records it can hold, so a well-formed trace's headers are allocated
// once, exactly.
func ReadTraceFile(path string) ([]rules.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readTrace(f, uint64(max(st.Size()-headerSize, 0))/recordSize)
}
