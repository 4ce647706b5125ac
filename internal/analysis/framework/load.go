package framework

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"strings"
)

// LoadedPackage is one source-type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// typecheck parses goFiles and type-checks them as package path,
// resolving imports through imp. goVersion is the "go1.N" language
// version ("" for the toolchain default).
func typecheck(fset *token.FileSet, path string, goFiles []string, imp types.Importer, goVersion string) (*LoadedPackage, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var firstErr error
	cfg := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	if goVersion != "" && !strings.Contains(goVersion, "-") {
		cfg.GoVersion = goVersion
	}
	pkg, err := cfg.Check(path, fset, files, info)
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// runAnalyzers runs each analyzer over lp, accumulating lp's facts
// into facts[lp.Path], and returns the diagnostics. facts holds the
// stores of the packages analyzed before lp, its dependencies among
// them.
func runAnalyzers(analyzers []*Analyzer, lp *LoadedPackage, module string, facts map[string]factStore) ([]Diagnostic, error) {
	facts[lp.Path] = factStore{}
	var diags []Diagnostic
	for _, an := range analyzers {
		pass := &Pass{
			Analyzer:  an,
			Fset:      lp.Fset,
			Files:     lp.Files,
			Pkg:       lp.Pkg,
			TypesInfo: lp.Info,
			Module:    module,
			diags:     &diags,
			facts:     facts,
		}
		if err := an.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", an.Name, lp.Path, err)
		}
	}
	return diags, nil
}
