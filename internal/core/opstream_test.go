package core

// The op-stream format of FuzzDeviceVsLinear. internal/cluster's
// TestClusterDifferential and internal/ingress's
// TestFlowCacheChurnVsClassify replay the same seed corpus, and a test
// file cannot be imported, so opstream_test.go in each of those
// packages is this file under that package's clause: TestOpstreamCopy
// there fails as soon as the two differ. Edit this one and copy it over.
//
// An op stream is four bytes per op: kind, rule ID, priority, shape.
//
//	kind%4    0 insert, 1 delete, 2 modify, 3 lookup
//	id%64     the rule ID; few enough that deletes and modifies hit
//	prio*257  the priority, spread over the 16-bit space
//	shape     bits 0-1 the source /16, bits 2-3 the source prefix length
//	          {0, 8, 16, 32}, bits 4-5 the destination ports {any, 80,
//	          1-6 = 4 entries, 1-65534 = 30 entries}, bit 6 protocol 6
//
// A replay turns an insert of an ID it holds installed into a modify:
// the ID is the delete handle, never two rules under one.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"catcam/internal/rules"
)

const (
	opInsert = iota
	opDelete
	opModify
	opLookup

	streamIDs    = 64  // distinct rule IDs; a rule's Action%streamIDs gives its ID back
	streamMaxOps = 512 // ops replayed of one stream; the rest is ignored
)

// streamOp is one decoded op: the rule an update installs (its ID is
// what a delete names) and the header a lookup classifies.
type streamOp struct {
	kind   int
	rule   rules.Rule
	header rules.Header
}

// decodeStream decodes an op stream. Every op's rule carries a unique
// action, so a winner names the installed version it came from.
func decodeStream(data []byte) []streamOp {
	ops := make([]streamOp, 0, min(len(data)/4, streamMaxOps))
	for len(data) >= 4 && len(ops) < streamMaxOps {
		kind, id, prio, shape := data[0], data[1], data[2], data[3]
		data = data[4:]
		r := rules.Rule{
			ID: int(id) % streamIDs, Priority: int(prio) * 257,
			SrcIP:   rules.Prefix{Addr: 0x0A000001 | uint32(shape&3)<<16, Len: [4]int{0, 8, 16, 32}[shape>>2&3]}.Canonical(),
			SrcPort: rules.FullPortRange(),
			DstPort: [4]rules.PortRange{rules.FullPortRange(), {Lo: 80, Hi: 80}, {Lo: 1, Hi: 6}, {Lo: 1, Hi: 65534}}[shape>>4&3],
			Proto:   6, ProtoWildcard: shape&0x40 == 0,
		}
		r.Action = (len(ops)+1)*streamIDs + r.ID
		// A source inside or outside the rules' 10.x/16 blocks, any
		// destination port.
		h := rules.Header{SrcIP: 0x0A000001 | uint32(id&3)<<16, DstPort: uint16(prio)<<8 | uint16(shape), Proto: 6}
		if id&4 != 0 {
			h.SrcIP = 0x0B000001
		}
		if id&8 != 0 {
			h.Proto = 17
		}
		ops = append(ops, streamOp{kind: int(kind % 4), rule: r, header: h})
	}
	return ops
}

// streamProbes is the fixed header set classified after every update:
// each source block and one outsider, against the three port shapes.
func streamProbes() []rules.Header {
	var hs []rules.Header
	for _, src := range []uint32{0x0A000001, 0x0A010001, 0x0A020001, 0x0A030001, 0x0B000001} {
		for _, port := range []uint16{80, 3, 40000} {
			hs = append(hs, rules.Header{SrcIP: src, DstPort: port, Proto: 6})
		}
		hs = append(hs, rules.Header{SrcIP: src, DstPort: 80, Proto: 17})
	}
	return hs
}

// streamSeeds reads the fuzz seed corpus in dir, by file name.
func streamSeeds(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus in %s: %v", dir, err)
	}
	seeds := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the version line, then one Go literal per
		// fuzz argument: here a single []byte("...").
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-argument fuzz corpus file", f)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds[filepath.Base(f)] = []byte(data)
	}
	return seeds
}
