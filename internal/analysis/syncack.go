package analysis

// syncack enforces the WAL's durability contract (DESIGN.md §12): once a
// function in internal/mapstore/wal writes to the journal, it may not
// return a nil error until the write has been fsynced. A nil return is
// the ack the caller treats as "this record survives a crash" — acking
// bytes that only reached the page cache silently breaks crash recovery.
// The check is a reachability question on the CFG: from every
// journal-write node, does any path reach a `return ..., nil` without
// passing a Sync() call first? Error-path returns (non-nil) are free to
// skip the sync — the caller is told the record is not durable.
//
// "Journal" means any value satisfying the write-and-sync shape
// (Write([]byte) (int, error) + Sync() error), built structurally so the
// analyzer needs no import of the wal package itself.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var SyncAck = &Analyzer{
	Name: "syncack",
	Doc: "in internal/mapstore/wal, every path from a journal write to a " +
		"nil-error return must pass through Sync (fsync-before-ack)",
	Run: runSyncAck,
}

// syncAckScope limits the analyzer to the WAL package (and its testdata
// mirrors in other modules).
const syncAckScope = "internal/mapstore/wal"

func runSyncAck(p *Pass) {
	if !strings.HasSuffix(p.Pkg.PkgPath, syncAckScope) {
		return
	}
	fileLike := fileLikeType()
	for _, fn := range p.flowFuncs() {
		var results *ast.FieldList
		if fn.decl != nil {
			results = fn.decl.Type.Results
		} else {
			results = fn.lit.Type.Results
		}
		if !lastResultIsError(p, results) {
			continue
		}
		p.checkSyncAck(fn.body, fileLike)
	}
}

// nodeKind classifies CFG nodes for the reachability walk.
type nodeKind int

const (
	nodePlain     nodeKind = iota
	nodeWrite              // journal write: starts the obligation
	nodeSync               // fsync: discharges it
	nodeNilReturn          // nil-error return: must not be reached un-synced
)

func (p *Pass) checkSyncAck(body *ast.BlockStmt, fileLike *types.Interface) {
	cfg := BuildCFG(body)
	kinds := make([][]nodeKind, len(cfg.Blocks))
	hasWrite := false
	for _, b := range cfg.Blocks {
		kinds[b.Index] = make([]nodeKind, len(b.Nodes))
		for i, n := range b.Nodes {
			k := p.classifySyncNode(n, fileLike)
			kinds[b.Index][i] = k
			if k == nodeWrite {
				hasWrite = true
			}
		}
	}
	if !hasWrite {
		return
	}

	// offending maps each reachable un-synced nil return to the position
	// of the first journal write that reaches it (first in block order,
	// for deterministic messages).
	offending := make(map[ast.Node]token.Pos)
	order := make([]ast.Node, 0, 4)
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			if kinds[b.Index][i] != nodeWrite {
				continue
			}
			visited := make(map[int]bool)
			reach(cfg, kinds, b, i+1, visited, func(ret ast.Node) {
				if _, seen := offending[ret]; !seen {
					offending[ret] = n.Pos()
					order = append(order, ret)
				}
			})
		}
	}
	for _, ret := range order {
		at := p.Pkg.Fset.Position(offending[ret])
		p.Reportf(ret.Pos(), "nil-error return reachable from the journal write at line %d without an intervening Sync; ack only after fsync", at.Line)
	}
}

// reach walks forward from block b starting at node index start,
// reporting every nil-error return reached before a Sync node.
func reach(cfg *CFG, kinds [][]nodeKind, b *Block, start int, visited map[int]bool, report func(ast.Node)) {
	for i := start; i < len(b.Nodes); i++ {
		switch kinds[b.Index][i] {
		case nodeSync:
			return
		case nodeNilReturn:
			report(b.Nodes[i])
		}
	}
	for _, succ := range b.Succs {
		if visited[succ.Index] {
			continue
		}
		visited[succ.Index] = true
		reach(cfg, kinds, succ, 0, visited, report)
	}
}

// classifySyncNode decides what one CFG node means to the durability
// walk. A node both writing and returning cannot occur (a ReturnStmt is
// its own node), but a node may contain both a Write and a Sync call —
// classify by the *last* relevant call so `w.Write(b); w.Sync()` fused
// into one statement behaves correctly.
func (p *Pass) classifySyncNode(n ast.Node, fileLike *types.Interface) nodeKind {
	if ret, ok := n.(*ast.ReturnStmt); ok {
		if len(ret.Results) > 0 && isNilIdent(p, ret.Results[len(ret.Results)-1]) {
			return nodeNilReturn
		}
		return nodePlain
	}
	kind := nodePlain
	shallowWalk(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := p.TypeOf(sel.X)
		if recv == nil {
			return true
		}
		if !types.Implements(recv, fileLike) && !types.Implements(types.NewPointer(recv), fileLike) {
			return true
		}
		switch sel.Sel.Name {
		case "Write":
			kind = nodeWrite
		case "Sync":
			kind = nodeSync
		}
		return true
	})
	return kind
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.ObjectOf(id).(*types.Nil)
	return isNil
}

// lastResultIsError reports whether the function's final result is the
// built-in error type — the ack channel syncack cares about.
func lastResultIsError(p *Pass, results *ast.FieldList) bool {
	if results == nil || len(results.List) == 0 {
		return false
	}
	last := results.List[len(results.List)-1]
	t := p.TypeOf(last.Type)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// fileLikeType builds the journal shape from first principles: anything
// with Write([]byte) (int, error) and Sync() error.
func fileLikeType() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	writeSig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType),
		), false)
	syncSig := types.NewSignatureType(nil, nil, nil, types.NewTuple(), types.NewTuple(
		types.NewVar(token.NoPos, nil, "err", errType),
	), false)
	iface := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", writeSig),
		types.NewFunc(token.NoPos, nil, "Sync", syncSig),
	}, nil)
	iface.Complete()
	return iface
}
