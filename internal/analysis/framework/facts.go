package framework

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
)

// ObjectKey names a package-level function, method, or type within
// its package, stably across loads: a method is identified by its
// receiver's named base type plus its name, a function by name alone,
// a type by its name with Kind "type". This replaces x/tools'
// objectpath for the narrow cases catcam-lint needs.
type ObjectKey struct {
	Recv string // receiver base type name, "" for plain functions
	Name string
	Kind string // "" for funcs/methods, "type" for type names, "pkg" for the package slot
}

// pkgFactKey is the reserved slot package-level facts live under.
var pkgFactKey = ObjectKey{Kind: "pkg"}

func keyOf(obj types.Object) (ObjectKey, bool) {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Pkg() == nil {
			return ObjectKey{}, false
		}
		k := ObjectKey{Name: obj.Name()}
		if named := ReceiverNamed(obj); named != nil {
			k.Recv = named.Obj().Name()
		}
		return k, true
	case *types.TypeName:
		if obj.Pkg() == nil {
			return ObjectKey{}, false
		}
		return ObjectKey{Name: obj.Name(), Kind: "type"}, true
	}
	return ObjectKey{}, false
}

// factStore holds the gob-encoded facts of one package, keyed by
// analyzer name then object.
type factStore map[string]map[ObjectKey][]byte

// exportFact encodes f into the current package's store under k.
func (p *Pass) exportFact(k ObjectKey, f Fact) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		panic(fmt.Sprintf("analysis: encoding %s fact %v: %v", p.Analyzer.Name, k, err))
	}
	store := p.facts[p.Pkg.Path()]
	if store[p.Analyzer.Name] == nil {
		store[p.Analyzer.Name] = map[ObjectKey][]byte{}
	}
	store[p.Analyzer.Name][k] = buf.Bytes()
}

// importFact decodes into f the fact stored under k for pkg — the
// current package (this same run) or an analyzed dependency — and
// reports whether one exists. Decoding gives each importer its own
// copy.
func (p *Pass) importFact(pkg *types.Package, k ObjectKey, f Fact) bool {
	enc, ok := p.facts[pkg.Path()][p.Analyzer.Name][k]
	return ok && gob.NewDecoder(bytes.NewReader(enc)).Decode(f) == nil
}

// ExportPackageFact attaches a fact to the current package as a
// whole, under the analyzer's reserved package slot. Each analyzer
// holds at most one package fact per package; a second export
// overwrites the first.
func (p *Pass) ExportPackageFact(f Fact) { p.exportFact(pkgFactKey, f) }

// ImportPackageFact fills f with the package fact previously exported
// for pkg — the current package (this same run) or a dependency — and
// reports whether one exists.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	return pkg != nil && p.importFact(pkg, pkgFactKey, f)
}

// ExportObjectFact attaches a fact to a function, method, or type of
// the current package. Facts on other objects are silently dropped.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	if k, ok := keyOf(obj); ok {
		p.exportFact(k, f)
	}
}

// ImportObjectFact fills f with the fact previously exported for obj —
// by this same run for objects of the current package, or by the
// analysis of a dependency otherwise — and reports whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	k, ok := keyOf(obj)
	return ok && p.importFact(obj.Pkg(), k, f)
}
