// Package analysis implements itm-lint: a suite of project-specific
// determinism and safety analyzers built only on the Go standard library
// (go/ast + go/types). The toolkit's reproducibility promise — identical
// bytes from (config, seed) regardless of worker count or host — rests on
// invariants that byte-parity tests can only spot-check; these analyzers
// enforce them everywhere:
//
//   - nodeterm:  no wall clocks or global math/rand outside the seeded
//     substrates (internal/simtime, internal/randx)
//   - maporder:  no map-iteration order leaking into slices, writers, or
//     channels without an intervening sort
//   - floatfold: no order-dependent float accumulation inside map ranges
//   - errdrop:   no silently discarded errors in the measurement clients
//   - seedflow:  no per-iteration reconstruction of randx sources
//
// The v2 analyzers sit on an intraprocedural dataflow layer (cfg.go,
// dataflow.go) that tracks lock-sets, value freshness, and atomic
// publication per program point, and turn DESIGN.md §9–§12's concurrency
// and durability invariants into machine-checked rules:
//
//   - lockguard: fields annotated //itm:guardedby <mu> are accessed only
//     while that mutex is held (exclusively, for writes)
//   - pubfreeze: values stored into an atomic.Pointer are frozen — no
//     writes through any alias after publication
//   - oncefill:  fields filled inside sync.Once.Do are written nowhere
//     else (single-flight results are write-once)
//   - syncack:   in internal/mapstore/wal, no path from a journal write
//     to a nil-error return may skip the fsync
//
// One check needs the whole module loaded and so is not in All():
//
//   - deadexport: no exported function or method under internal/ that no
//     non-test file references (DeadExport; itm-lint adds it on a
//     whole-module run)
//
// Findings can be suppressed line-by-line with
//
//	//itmlint:allow <analyzer> <reason>
//
// on the offending line or the line above it. A suppression that matches
// no diagnostic is itself reported, so stale annotations cannot linger.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check run over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package and collects reports.
type Pass struct {
	An  *Analyzer
	Pkg *Package
	out *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.An.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier uses or defines.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Diagnostic is one finding, printed as "file:line:col: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full itm-lint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, MapOrder, FloatFold, ErrDrop, SeedFlow,
		LockGuard, PubFreeze, OnceFill, SyncAck}
}

// SuppressName is the pseudo-analyzer under which stale or malformed
// //itmlint:allow comments are reported. It cannot itself be suppressed.
const SuppressName = "suppress"

// allowDirective is one parsed //itmlint:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const allowPrefix = "//itmlint:allow"

// Run executes the given analyzers over pkg, applies //itmlint:allow
// suppressions, reports stale or malformed suppressions, and returns the
// surviving diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, an := range analyzers {
		an.Run(&Pass{An: an, Pkg: pkg, out: &raw})
	}
	// Nested loops can make an analyzer visit the same node from two
	// enclosing scopes; a finding is a finding once.
	seen := make(map[Diagnostic]bool, len(raw))
	uniq := raw[:0]
	for _, d := range raw {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	raw = uniq

	known := make(map[string]bool, len(analyzers))
	for _, an := range analyzers {
		known[an.Name] = true
	}

	var allows []*allowDirective
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					out = append(out, Diagnostic{Pos: pos, Analyzer: SuppressName,
						Message: "malformed //itmlint:allow: want \"//itmlint:allow <analyzer> <reason>\""})
					continue
				}
				if fields[0] != SuppressName && !knownAnalyzer(fields[0]) {
					out = append(out, Diagnostic{Pos: pos, Analyzer: SuppressName,
						Message: fmt.Sprintf("//itmlint:allow names unknown analyzer %q", fields[0])})
					continue
				}
				allows = append(allows, &allowDirective{pos: pos, analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
			}
		}
	}

	for _, d := range raw {
		if a := matchAllow(allows, d); a != nil {
			a.used = true
			continue
		}
		out = append(out, d)
	}
	for _, a := range allows {
		// Only judge staleness for analyzers that actually ran: a partial
		// run (e.g. a single-analyzer test) must not flag allows belonging
		// to the rest of the suite.
		if !a.used && known[a.analyzer] {
			out = append(out, Diagnostic{Pos: a.pos, Analyzer: SuppressName,
				Message: fmt.Sprintf("stale //itmlint:allow %s: no matching diagnostic on this or the next line", a.analyzer)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// matchAllow finds an allow for d: same file, same analyzer, and the
// comment sits on the diagnostic's line (trailing) or the line above.
func matchAllow(allows []*allowDirective, d Diagnostic) *allowDirective {
	for _, a := range allows {
		if a.analyzer != d.Analyzer || a.pos.Filename != d.Pos.Filename {
			continue
		}
		if a.pos.Line == d.Pos.Line || a.pos.Line == d.Pos.Line-1 {
			return a
		}
	}
	return nil
}

func knownAnalyzer(name string) bool {
	if name == deadExportName {
		return true
	}
	for _, an := range All() {
		if an.Name == name {
			return true
		}
	}
	return false
}

// inspect walks every file of the pass's package.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// funcOf is a helper for analyzers that need the enclosing function body
// of a node: it returns the innermost FuncDecl or FuncLit body containing
// pos in file f, or nil.
func funcOf(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body
		}
		return true
	})
	return best
}
