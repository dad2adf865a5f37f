package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// familyCtors build a declared family value; registryCtors are the
// string-keyed constructors a family must not be spelled through outside
// this package (obs.C and friends, and the Registry methods they wrapped).
var (
	familyCtors   = map[string]bool{"NewCounter": true, "NewGauge": true, "NewHistogram": true}
	registryCtors = map[string]bool{
		"C": true, "G": true, "H": true,
		"Counter": true, "Gauge": true, "Histogram": true,
		"VolatileCounter": true, "VolatileHistogram": true,
		"Declare": true, "DeclareHistogram": true,
	}
)

// TestMetricFamiliesDeclaredOnce guards "named once" over the non-test Go
// under internal/ and cmd/: every metric family is constructed by exactly one
// NewCounter/NewGauge/NewHistogram call with a literal name, no two families
// share a help string, and no itm_ literal reaches a string-keyed registry
// constructor outside internal/obs.
func TestMetricFamiliesDeclaredOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	names := map[string]token.Position{}
	helps := map[string]token.Position{}
	once := func(seen map[string]token.Position, what, s string, pos token.Position) {
		if prev, dup := seen[s]; dup {
			t.Errorf("%s: %s %q written again (first at %s)", pos, what, s, prev)
			return
		}
		seen[s] = pos
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			inObs := filepath.Dir(path) == filepath.Join(root, "internal", "obs")
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeName(call.Fun)
				pos := fset.Position(call.Pos())
				switch {
				case familyCtors[fn]:
					name, ok := literalArg(call, 0)
					if !ok {
						t.Errorf("%s: %s needs a literal family name", pos, fn)
						return true
					}
					once(names, "family name", name, pos)
					if help, ok := literalArg(call, 1); ok {
						once(helps, "help string", help, pos)
					}
				case registryCtors[fn]:
					for i := range call.Args {
						if name, ok := literalArg(call, i); ok && strings.HasPrefix(name, "itm_") {
							once(names, "family name", name, pos)
							if !inObs {
								t.Errorf("%s: %s(%q): declare the family once with obs.NewCounter, NewGauge or NewHistogram", pos, fn, name)
							}
							break
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(names) < 50 {
		t.Fatalf("found only %d metric families: the scan no longer sees the declarations", len(names))
	}
}

// calleeName is the called function's bare name: f or x.f.
func calleeName(fun ast.Expr) string {
	switch fn := fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// literalArg evaluates call's i-th argument when it is a string literal or a
// +-concatenation of them.
func literalArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	var eval func(ast.Expr) (string, bool)
	eval = func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			if e.Kind != token.STRING {
				return "", false
			}
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return "", false
			}
			x, okx := eval(e.X)
			y, oky := eval(e.Y)
			return x + y, okx && oky
		case *ast.ParenExpr:
			return eval(e.X)
		}
		return "", false
	}
	return eval(call.Args[i])
}
