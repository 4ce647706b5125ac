package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"catcam/internal/rules"
)

// TestWindow: a window over a header it holds twice, at epochs 10
// (no rule), 11 (action 7) and 12-14 (action 9, recorded at 14 alone),
// whose writer then stops.
func TestWindow(t *testing.T) {
	hit := rules.Header{SrcIP: 0x0A000001, DstPort: 80, Proto: 6}
	miss := rules.Header{SrcIP: 0x0B000001, DstPort: 80, Proto: 6}
	r := rules.Rule{ID: 1, SrcIP: rules.Prefix{Addr: 0x0A000000, Len: 8}, SrcPort: rules.FullPortRange(),
		DstPort: rules.FullPortRange(), ProtoWildcard: true}
	m := NewMirror()
	w := NewWindow(m.Ref, []rules.Header{hit, miss, hit}, 10, 5)
	for _, step := range []struct {
		kind          Kind
		action, epoch int
	}{{Insert, 7, 11}, {Modify, 9, 14}} {
		r.Action = step.action
		if err := m.Apply(step.kind, r, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Record(uint64(step.epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.hs) != 2 || len(w.rows[0]) != 2 {
		t.Fatalf("%d headers in %d columns, want the 2 distinct ones", len(w.hs), len(w.rows[0]))
	}
	if err := w.Record(14); err != nil {
		t.Fatalf("recording epoch 14 again, unchanged: %v", err)
	}
	if err := w.Record(13); err == nil {
		t.Fatal("recorded epoch 13 after 14")
	}
	if err := m.Apply(Delete, r, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(14); err == nil {
		t.Fatal("recorded epoch 14 again after a rule changed")
	}
	w.Close()

	none, a7, a9 := Answer{}, Answer{7, true}, Answer{9, true}
	for _, tc := range []struct {
		name          string
		hs            []rules.Header
		got           []Answer
		before, after uint64
		ok            bool
	}{
		{"an answer of any epoch in the window", []rules.Header{hit}, []Answer{a7}, 10, 12, true},
		{"an answer of no epoch in the window", []rules.Header{hit}, []Answer{a7}, 12, 14, false},
		{"an answer before the window", []rules.Header{hit}, []Answer{none}, 11, 14, false},
		{"a skipped epoch filled forward", []rules.Header{hit}, []Answer{a9}, 12, 12, true},
		{"repeated headers, one row", []rules.Header{hit, miss, hit}, []Answer{a7, none, a7}, 11, 11, true},
		{"a repeat that differs", []rules.Header{hit, miss, hit}, []Answer{a7, none, a9}, 11, 11, false},
		{"a header outside the set", []rules.Header{{SrcIP: 1}}, []Answer{none}, 10, 10, false},
		{"an epoch the writer never records", []rules.Header{hit}, []Answer{a9}, 14, 15, false},
	} {
		if err := w.Check(tc.hs, tc.got, tc.before, tc.after); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// TestNoBinaryImportsOracle: the package is a test reference and must
// never reach a binary, so no non-test file of the module imports it.
func TestNoBinaryImportsOracle(t *testing.T) {
	files := 0
	err := filepath.WalkDir("../..", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != "../.." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "catcam/internal/oracle" {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go file to check")
	}
}
