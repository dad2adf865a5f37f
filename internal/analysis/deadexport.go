package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadExportName is not in All(): the check needs the whole module. A
// partial load cannot tell "unreferenced" from "referenced by a package
// that was not loaded".
const deadExportName = "deadexport"

// DeadExport builds the whole-module check over pkgs — every package of the
// module, as LoadAll returns them; test files are never loaded. An exported
// function or method declared under internal/ that no non-test file
// references is code nothing calls: delete it, or, when tests of another
// package need it, keep it under an //itmlint:allow with that reason. A
// method through which its receiver satisfies an interface the module
// declares or imports counts as referenced — it is reached through the
// interface.
func DeadExport(pkgs []*Package) *Analyzer {
	used := map[*types.Func]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			collect(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		collect(pkg.Types)
	}
	return &Analyzer{
		Name: deadExportName,
		Doc:  "forbid exported functions and methods under internal/ that no non-test file references",
		Run: func(p *Pass) {
			if !strings.Contains(p.Pkg.PkgPath, "/internal/") {
				return
			}
			for _, f := range p.Pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok || used[fn] || viaInterface(fn, ifaces) {
						continue
					}
					p.Reportf(fd.Name.Pos(), "exported %s has no non-test reference: delete it, or allow it with the reason it stays", fn.Name())
				}
			}
		},
	}
}

// viaInterface reports whether fn is a method through which its receiver
// type implements one of ifaces.
func viaInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
