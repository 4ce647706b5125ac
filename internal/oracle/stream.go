// Package oracle is the one differential reference the tests of core,
// cluster and ingress share: the op-stream format of core's
// FuzzDeviceVsLinear and its seed corpus, the Mirror that says what a
// replayed update leaves installed, and the Window that holds answers
// racing concurrent updates to swclass.Linear at some epoch they could
// have seen. Only tests import it, and a test here fails if a non-test
// file does.
package oracle

// An op stream is four bytes per op: kind, rule ID, priority, shape.
//
//	kind%4    0 insert, 1 delete, 2 modify, 3 lookup
//	id%64     the rule ID; few enough that deletes and modifies hit
//	prio*257  the priority, spread over the 16-bit space
//	shape     bits 0-1 the source /16, bits 2-3 the source prefix length
//	          {0, 8, 16, 32}, bits 4-5 the destination ports {any, 80,
//	          1-6 = 4 entries, 1-65534 = 30 entries}, bit 6 protocol 6

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"catcam/internal/rules"
	"catcam/internal/swclass"
)

// Kind is what an op does.
type Kind int

const (
	Insert Kind = iota
	Delete
	Modify
	Lookup
)

const (
	IDs    = 64  // distinct rule IDs; a rule's Action%IDs gives its ID back
	maxOps = 512 // ops decoded of one stream; the rest is ignored
)

// Op is one decoded op: the rule an update installs (its ID is what a
// delete names) and the header a lookup classifies.
type Op struct {
	Kind   Kind
	Rule   rules.Rule
	Header rules.Header
}

// Decode decodes an op stream. Every op's rule carries a unique action,
// so a winner names the installed version it came from.
func Decode(data []byte) []Op {
	ops := make([]Op, 0, min(len(data)/4, maxOps))
	for len(data) >= 4 && len(ops) < maxOps {
		kind, id, prio, shape := data[0], data[1], data[2], data[3]
		data = data[4:]
		r := rules.Rule{
			ID: int(id) % IDs, Priority: int(prio) * 257,
			SrcIP:   rules.Prefix{Addr: 0x0A000001 | uint32(shape&3)<<16, Len: [4]int{0, 8, 16, 32}[shape>>2&3]}.Canonical(),
			SrcPort: rules.FullPortRange(),
			DstPort: [4]rules.PortRange{rules.FullPortRange(), {Lo: 80, Hi: 80}, {Lo: 1, Hi: 6}, {Lo: 1, Hi: 65534}}[shape>>4&3],
			Proto:   6, ProtoWildcard: shape&0x40 == 0,
		}
		r.Action = (len(ops)+1)*IDs + r.ID
		// A source inside or outside the rules' 10.x/16 blocks, any
		// destination port.
		h := rules.Header{SrcIP: 0x0A000001 | uint32(id&3)<<16, DstPort: uint16(prio)<<8 | uint16(shape), Proto: 6}
		if id&4 != 0 {
			h.SrcIP = 0x0B000001
		}
		if id&8 != 0 {
			h.Proto = 17
		}
		ops = append(ops, Op{Kind: Kind(kind % 4), Rule: r, Header: h})
	}
	return ops
}

// Probes is the fixed header set classified after every update: each
// source block and one outsider, against the three port shapes.
func Probes() []rules.Header {
	var hs []rules.Header
	for _, src := range []uint32{0x0A000001, 0x0A010001, 0x0A020001, 0x0A030001, 0x0B000001} {
		for _, port := range []uint16{80, 3, 40000} {
			hs = append(hs, rules.Header{SrcIP: src, DstPort: port, Proto: 6})
		}
		hs = append(hs, rules.Header{SrcIP: src, DstPort: 80, Proto: 17})
	}
	return hs
}

// Seeds reads the fuzz seed corpus in dir, by file name.
func Seeds(dir string) (map[string][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no seed corpus in %s: %v", dir, err)
	}
	seeds := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		// A corpus file is the version line, then one Go literal per
		// fuzz argument: here a single []byte("...").
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			return nil, fmt.Errorf("%s: not a one-argument fuzz corpus file", f)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		seeds[filepath.Base(f)] = []byte(data)
	}
	return seeds, nil
}

// Updater is what a replay updates, a device or a cluster, with the
// update result left for the caller to name.
type Updater[R any] interface {
	InsertRule(r rules.Rule) (R, error)
	DeleteRule(ruleID int) (R, error)
	ModifyRule(ruleID int, newRule rules.Rule) (R, error)
}

// Run runs an update on u as kind says; a lookup runs nothing.
func Run[R any](u Updater[R], kind Kind, r rules.Rule) (res R, err error) {
	switch kind {
	case Insert:
		return u.InsertRule(r)
	case Delete:
		return u.DeleteRule(r.ID)
	case Modify:
		return u.ModifyRule(r.ID, r)
	}
	return res, nil
}

// Mirror is what a replay leaves installed, held in swclass.Linear: the
// one statement of how an update changes the rule set. A replay runs
// each update on the system under test as Kind says and hands the
// outcome to Apply.
type Mirror struct {
	Ref  *swclass.Linear
	Live map[int]rules.Rule // the installed rules by ID
}

// NewMirror returns a mirror with no rule installed.
func NewMirror() *Mirror { return &Mirror{Ref: swclass.NewLinear(), Live: map[int]rules.Rule{}} }

// Kind returns what o runs as: an insert of a live ID is a modify, since
// the ID is the delete handle and never names two rules.
func (m *Mirror) Kind(o Op) Kind {
	if _, live := m.Live[o.Rule.ID]; live && o.Kind == Insert {
		return Modify
	}
	return o.Kind
}

// Apply mirrors an update run as kind on r that returned err. An update
// that returned an error changes nothing. Otherwise a delete or a modify
// removes the live rule of r's ID, and an insert or a modify installs r.
func (m *Mirror) Apply(kind Kind, r rules.Rule, err error) error {
	if kind == Lookup || err != nil {
		return nil
	}
	if kind != Insert {
		delete(m.Live, r.ID)
		if err := m.Ref.Delete(r.ID); err != nil {
			return err
		}
	}
	if kind == Delete {
		return nil
	}
	m.Live[r.ID] = r
	return m.Ref.Insert(r)
}
