package framework

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// listPackage is the subset of `go list -json` output the driver uses.
type listPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	CgoFiles     []string
	Imports      []string
	Export       string
	DepOnly      bool
	ForTest      string
	Module       *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Config configures an analysis run.
type Config struct {
	Dir      string   // directory to run `go list` in (any dir inside the target module)
	Patterns []string // package patterns, e.g. ./...
	Tags     []string // build tags, e.g. for the lint selftest package
}

// FlatDiag is a resolved diagnostic ready for printing or matching.
type FlatDiag struct {
	Position token.Position
	Analyzer string
	Category string
	Message  string
}

func (d FlatDiag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run lists the requested packages plus their dependency closure,
// type-checks every package of the enclosing module from source (in
// dependency order, importing everything else from compiler export
// data), runs the analyzers over each, and returns the diagnostics of
// the packages that matched the patterns. Facts flow between module
// packages in memory. A matched package is analyzed with its
// in-package _test.go files merged in, and its external test package
// (package foo_test), if any, is analyzed as foo_test.
func Run(cfg Config, analyzers []*Analyzer) ([]FlatDiag, error) {
	pkgs, err := goList(cfg)
	if err != nil {
		return nil, err
	}

	byPath := map[string]*listPackage{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}

	// Module membership: the module of the first non-DepOnly package.
	// (All target packages come from the same module in our usage.)
	module := ""
	for _, p := range pkgs {
		if !p.DepOnly && p.Module != nil {
			module = p.Module.Path
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module found for patterns %v", cfg.Patterns)
	}
	inModule := func(p *listPackage) bool {
		return p.Module != nil && p.Module.Path == module
	}

	fset := token.NewFileSet()
	sourceLoaded := map[string]*types.Package{}

	// Export-data importer for everything outside the module; the
	// lookup indirection lets source-loaded module packages shadow it.
	gcImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := sourceLoaded[path]; ok {
			return tp, nil
		}
		return gcImp.Import(path)
	})

	// Topologically order module packages by their in-module imports.
	var moduleOrder []*listPackage
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *listPackage) error
	visit = func(p *listPackage) error {
		switch state[p.ImportPath] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p.ImportPath] = 1
		imports := p.Imports
		if !p.DepOnly {
			// Test files may import in-module packages the non-test
			// package does not; those must typecheck first.
			imports = append(append([]string{}, imports...), p.TestImports...)
		}
		for _, ip := range imports {
			if dep, ok := byPath[ip]; ok && inModule(dep) && ip != p.ImportPath {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = 2
		moduleOrder = append(moduleOrder, p)
		return nil
	}
	for _, p := range pkgs {
		if inModule(p) {
			if err := visit(p); err != nil {
				return nil, err
			}
		}
	}

	facts := map[string]factStore{}
	var out []FlatDiag
	analyze := func(p *listPackage, path string, files []string) error {
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		// go list reports file names relative to the package directory.
		goFiles := make([]string, len(files))
		for i, f := range files {
			goFiles[i] = filepath.Join(p.Dir, f)
		}
		lp, err := typecheck(fset, path, goFiles, imp, goVersion)
		if err != nil {
			return err
		}
		sourceLoaded[path] = lp.Pkg
		diags, err := runAnalyzers(analyzers, lp, module, facts)
		if err != nil || p.DepOnly {
			return err // a dependency yields facts only; diagnostics are for the named packages
		}
		for _, d := range diags {
			out = append(out, FlatDiag{
				Position: fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Category: d.Category,
				Message:  d.Message,
			})
		}
		return nil
	}
	for _, p := range moduleOrder {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, unsupported", p.ImportPath)
		}
		files := p.GoFiles
		if !p.DepOnly {
			files = append(append([]string{}, files...), p.TestGoFiles...)
		}
		if err := analyze(p, p.ImportPath, files); err != nil {
			return nil, err
		}
	}
	// An external test package may import foo through packages that
	// themselves import foo, so it is checked only once every module
	// package is loaded. Nothing imports it, so it stays out of the
	// topological order.
	for _, p := range moduleOrder {
		if !p.DepOnly && len(p.XTestGoFiles) > 0 {
			if err := analyze(p, p.ImportPath+"_test", p.XTestGoFiles); err != nil {
				return nil, err
			}
		}
	}
	slices.SortFunc(out, func(a, b FlatDiag) int {
		return cmp.Or(strings.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line), strings.Compare(a.Message, b.Message))
	})
	return out, nil
}

func goList(cfg Config) ([]*listPackage, error) {
	// -test pulls the test-only dependency closure (with export data)
	// into the listing so test files typecheck.
	args := []string{"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,TestImports,CgoFiles,Imports,Export,DepOnly,ForTest,Module,Error"}
	if len(cfg.Tags) > 0 {
		args = append(args, "-tags", strings.Join(cfg.Tags, ","))
	}
	args = append(args, cfg.Patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var plain, variants []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		// Under -test, go list also emits per-test pseudo-packages:
		// the generated main ("foo.test"), the package recompiled with
		// its test files ("foo [foo.test]"), the external test package
		// ("foo_test [foo.test]"), and packages recompiled because they
		// import foo ("bar [foo.test]"). The driver builds its own test
		// view from the plain package's TestGoFiles and XTestGoFiles,
		// so the first three are dropped. The last is kept under its
		// plain path: when only foo's external test imports bar, it is
		// bar's only listing.
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest != "" {
			path, _, _ := strings.Cut(p.ImportPath, " [")
			if path == p.ForTest || path == p.ForTest+"_test" {
				continue
			}
			p.ImportPath, p.DepOnly = path, true
			for i, ip := range p.Imports {
				p.Imports[i], _, _ = strings.Cut(ip, " [")
			}
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.ForTest != "" {
			variants = append(variants, p)
		} else {
			plain = append(plain, p)
		}
	}
	// A package's plain listing wins over its test variants.
	var pkgs []*listPackage
	seen := map[string]bool{}
	for _, p := range append(plain, variants...) {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
