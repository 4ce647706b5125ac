package hotpath_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catcam/internal/analysis/framework"
	"catcam/internal/analysis/hotpath"
)

// TestInjectedAllocationInSearchIntoGraph is the acceptance check for
// the hotpath analyzer against the real kernel sources: it copies the
// bitvec/ternary/sram packages (annotations included) into a scratch
// module, verifies they analyze clean, then injects an allocation into
// bitvec.LoadWords — the hand-off SearchInto's bit-sliced kernel ends
// on — and verifies the analyzer rejects it through the transitive
// call graph. This proves the //catcam:hotpath guarantee on SearchInto
// is live, not vacuously green.
func TestInjectedAllocationInSearchIntoGraph(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module injected\n\ngo 1.22\n")
	var bitvecPath string
	for _, pkg := range []string{"bitvec", "ternary", "sram"} {
		src := filepath.Join("..", "..", pkg)
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(root, pkg, e.Name())
			writeFile(t, dst, strings.ReplaceAll(string(data), "catcam/internal/", "injected/"))
			if pkg == "bitvec" && e.Name() == "bitvec.go" {
				bitvecPath = dst
			}
		}
	}
	if bitvecPath == "" {
		t.Fatal("bitvec.go not found")
	}

	run := func() []framework.FlatDiag {
		t.Helper()
		diags, err := framework.Run(framework.Config{
			Dir:      root,
			Patterns: []string{"./..."},
		}, []*framework.Analyzer{hotpath.Analyzer})
		if err != nil {
			t.Fatalf("framework.Run: %v", err)
		}
		return diags
	}

	if diags := run(); len(diags) != 0 {
		t.Fatalf("pristine copy of the kernel packages should analyze clean, got: %v", diags)
	}

	// Inject: LoadWords now reallocates the backing slice instead of
	// copying in place. SearchInto deposits its accumulator via
	// dst.LoadWords(acc), so the hot graph picks this up.
	orig, err := os.ReadFile(bitvecPath)
	if err != nil {
		t.Fatal(err)
	}
	const from = "copy(v.words, ws)"
	const to = "v.words = append([]uint64(nil), ws...)"
	if !strings.Contains(string(orig), from) {
		t.Fatalf("injection site %q not found in %s; update this test to the current LoadWords body", from, bitvecPath)
	}
	writeFile(t, bitvecPath, strings.Replace(string(orig), from, to, 1))

	diags := run()
	if len(diags) == 0 {
		t.Fatal("injected allocation in bitvec.LoadWords was not rejected")
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "hotpath" && strings.Contains(d.Message, "LoadWords") {
			found = true
			t.Logf("rejected as expected: %s", d)
		}
	}
	if !found {
		t.Errorf("no hotpath diagnostic blames LoadWords; got: %v", diags)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
