// Package ledgercheck keeps the crash checker honest: the theorems it
// verifies (package crash, Theorem 2) are vacuous unless every Model
// implementation reports its persistent writes to the Ledger. For each
// concrete type in internal/model with a Store method of the Model.Store
// shape, the analyzer walks the package-local call graph reachable
// from Store; if no reachable function calls Ledger.RecordWrite, the
// model's writes would be invisible to the crash checker and Store is
// flagged.
package ledgercheck

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/analysis"
)

// New returns the ledgercheck analyzer.
func New() analysis.Analyzer { return checker{} }

type checker struct{}

func (checker) Name() string { return "ledgercheck" }

func (checker) Doc() string {
	return "every Model implementation's Store path must reach a Ledger.RecordWrite call, or the crash checker has no ground truth"
}

func (checker) Run(pass *analysis.Pass) {
	if !strings.HasSuffix(pass.Path, "internal/model") {
		return
	}

	// Package-local call graph: function object -> called function
	// objects, plus which functions call RecordWrite directly. Calls
	// inside stored closures count — the closure still belongs to the
	// enclosing function's path.
	calls := make(map[*types.Func][]*types.Func)
	direct := make(map[*types.Func]bool)
	var stores []storeMethod

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee *ast.Ident
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					callee = fn
				case *ast.SelectorExpr:
					callee = fn.Sel
				default:
					return true
				}
				if callee.Name == "RecordWrite" {
					direct[obj] = true
					return true
				}
				if target, ok := pass.ObjectOf(callee).(*types.Func); ok &&
					target.Pkg() == pass.Pkg {
					calls[obj] = append(calls[obj], target)
				}
				return true
			})
			if isStoreMethod(fd) {
				stores = append(stores, storeMethod{decl: fd, obj: obj})
			}
		}
	}

	for _, s := range stores {
		if !reachesRecordWrite(s.obj, calls, direct) {
			pass.Reportf(s.decl.Pos(),
				"%s.Store never reaches Ledger.RecordWrite: the crash checker has no ground truth for this model",
				recvTypeName(s.decl))
		}
	}
}

type storeMethod struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

// isStoreMethod matches the Model.Store shape: a method named Store
// taking three parameters (core, line, token) and returning nothing.
func isStoreMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Store" || fd.Type.Results != nil {
		return false
	}
	n := 0
	for _, f := range fd.Type.Params.List {
		n += max(len(f.Names), 1)
	}
	return n == 3
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// reachesRecordWrite BFS-walks the call graph from start.
func reachesRecordWrite(start *types.Func, calls map[*types.Func][]*types.Func, direct map[*types.Func]bool) bool {
	seen := map[*types.Func]bool{start: true}
	queue := []*types.Func{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if direct[fn] {
			return true
		}
		for _, next := range calls[fn] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}
