package framework

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// malformed reports every //catcam: comment that does not parse, in
// whatever files the driver hands it.
var malformed = &Analyzer{
	Name: "malformed",
	Run: func(pass *Pass) error {
		for _, c := range MalformedDirectives(pass.Files) {
			pass.Reportf(c.Pos(), "directive", "malformed %s", c.Text)
		}
		return nil
	},
}

// lintModule writes a module whose package p has one malformed
// directive in its in-package test file and one in its external test
// file, which also imports p through package q, runs the malformed
// analyzer over the packages matching pattern, and returns the module
// root and the findings.
func lintModule(t *testing.T, pattern string) (string, []FlatDiag) {
	t.Helper()
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module example.com/p\n\ngo 1.22\n",
		"p.go":          "package p\n\nfunc F() int { return 1 }\n",
		"p_test.go":     "package p\n\n//catcam:bogus\nvar inPackage = F()\n",
		"p_ext_test.go": "package p_test\n\nimport \"example.com/p/q\"\n\n//catcam:bogus\nvar external = q.G()\n",
		"q/q.go":        "package q\n\nimport \"example.com/p\"\n\nfunc G() int { return p.F() }\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := Run(Config{Dir: root, Patterns: []string{pattern}}, []*Analyzer{malformed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return root, diags
}

// TestRunAnalyzesTestFiles checks that both kinds of test file are
// analyzed: _test.go files of the package itself and the external test
// package (package p_test). Only p is matched, so q, which imports p,
// is listed only as a dependency of p's test build.
func TestRunAnalyzesTestFiles(t *testing.T) {
	_, diags := lintModule(t, ".")
	got := map[string]int{}
	for _, d := range diags {
		got[filepath.Base(d.Position.Filename)]++
	}
	if len(got) != 2 || got["p_test.go"] != 1 || got["p_ext_test.go"] != 1 {
		t.Errorf("findings by file = %v, want one in p_test.go and one in p_ext_test.go", got)
	}
}

// TestPrintedFindingsMatchProblemMatcher checks that the lines Main
// prints are relative to the working directory and parse with the
// regexp CI registers as its problem matcher, read from the matcher
// file itself so the two cannot drift.
func TestPrintedFindingsMatchProblemMatcher(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", ".github", "catcam-lint-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string
				File   int
			}
		}
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatal(err)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pat.Regexp)

	root, diags := lintModule(t, "./...")
	if len(diags) == 0 {
		t.Fatal("no findings to print")
	}
	var buf bytes.Buffer
	if err := writeDiags(&buf, root, diags, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(diags) {
		t.Fatalf("printed %d lines for %d findings:\n%s", len(lines), len(diags), buf.String())
	}
	for _, line := range lines {
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%q does not match the problem matcher %q", line, pat.Regexp)
			continue
		}
		if file := m[pat.File]; filepath.IsAbs(file) || !strings.HasSuffix(file, "_test.go") {
			t.Errorf("%q: file %q is not relative to the working directory", line, file)
		}
	}
}

// TestVerbTable checks that parseDirective accepts exactly the verbs
// in Verbs: each parses with its argument, and a verb outside the table
// is malformed.
func TestVerbTable(t *testing.T) {
	for _, v := range Verbs {
		text := "//catcam:" + v.Name
		switch v.Name {
		case "allow":
			text += ` cycles "a reason"`
		case "guarded-by", "write-guarded-by":
			text += " mu"
		}
		d, ok := parseDirective(&ast.Comment{Text: text})
		if !ok || d.Verb != v.Name {
			t.Errorf("%q parsed as verb %q (directive %v), want %q", text, d.Verb, ok, v.Name)
		}
	}
	for _, text := range []string{"//catcam:immutable", "//catcam:hot-path", "//catcam:"} {
		if d, ok := parseDirective(&ast.Comment{Text: text}); !ok || d.Verb != "" {
			t.Errorf("%q parsed as verb %q, want malformed", text, d.Verb)
		}
	}
}
