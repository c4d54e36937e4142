// Package domaincheck enforces the simulator's state-isolation invariant:
// an event callback may only mutate state owned by its component.
//
// A component is a named struct type implementing the typed event
// interface — a method
//
//	RunEvent(kind int, arg uint64)
//
// (sim.EventOp). Everything reachable from a component's RunEvent
// through static calls, interface dispatch and closures, restricted to
// the component's own methods, its closures, and free functions, forms
// that component's event domain. Inside the domain, two kinds of write
// are flagged:
//
//   - writes to package-level variables (shared by every domain, and by
//     every machine a worker pool runs concurrently), and
//   - writes that reach through a pointer into a *different* component
//     (assignments to its fields, or through a dereference of a pointer
//     to it). Cross-component *method calls* stay legal — they are the
//     messaging fabric, and the callee keeps its own invariants — but
//     reaching directly into another component's memory bypasses them.
//
// The engine itself is shared infrastructure by contract (schedule calls
// from any domain); it has no RunEvent, so it is not a component and
// writes via its API are method calls anyway. Violations carry the
// owning domain in the message and honor //asaplint:ignore domaincheck,
// which on a call site also cuts the edge out of the domain like
// alloccheck's propagation control.
package domaincheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"asap/internal/analysis"
	"asap/internal/analysis/callgraph"
)

// New returns the domaincheck module analyzer.
func New() analysis.ModuleAnalyzer { return checker{} }

type checker struct{}

func (checker) Name() string { return "domaincheck" }

func (checker) Doc() string {
	return "event callbacks (RunEvent and everything it reaches) may only mutate their own component's state: no package-level variable writes, no writes into other components' fields"
}

func (c checker) RunModule(pass *analysis.ModulePass) {
	g := callgraph.Build(pass.Pkgs)
	dc := &domainCtx{pass: pass, g: g, flagged: make(map[token.Pos]bool)}
	for _, named := range g.NamedTypes() {
		if isComponent(named) {
			dc.components = append(dc.components, named)
		}
	}
	for _, comp := range dc.components {
		dc.checkDomain(comp)
	}
}

type domainCtx struct {
	pass       *analysis.ModulePass
	g          *callgraph.Graph
	components []*types.Named
	// flagged dedupes findings by position: a free function reachable
	// from several domains is reported once, for the first domain that
	// reaches it.
	flagged map[token.Pos]bool
}

// isComponent reports whether the named type is a struct with a
// RunEvent(kind int, arg uint64) method (pointer method set).
func isComponent(named *types.Named) bool {
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "RunEvent")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	p0, ok0 := sig.Params().At(0).Type().(*types.Basic)
	p1, ok1 := sig.Params().At(1).Type().(*types.Basic)
	return ok0 && ok1 && p0.Kind() == types.Int && p1.Kind() == types.Uint64
}

// checkDomain walks the event domain of one component.
func (dc *domainCtx) checkDomain(owner *types.Named) {
	runEvent := dc.methodNode(owner, "RunEvent")
	if runEvent == nil || runEvent.Body == nil {
		return
	}
	inScope := map[*callgraph.Node]bool{runEvent: true}
	queue := []*callgraph.Node{runEvent}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, call := range n.Calls {
			if call.Kind != callgraph.Static && call.Kind != callgraph.Interface {
				continue
			}
			if dc.pass.Ignored(callPos(call)) {
				continue // directive cuts the edge out of the domain
			}
			for _, callee := range call.Callees {
				if inScope[callee] || !dc.inDomain(owner, callee) {
					continue
				}
				inScope[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	for _, n := range dc.g.Nodes { // deterministic order
		if inScope[n] && n.Body != nil {
			dc.checkBody(owner, n)
		}
	}
}

// inDomain decides whether a callee executes as part of owner's domain:
// the owner's own methods, closures created inside the domain, and free
// functions. Methods of other named types are the messaging surface and
// are policed by their own component (if any).
func (dc *domainCtx) inDomain(owner *types.Named, n *callgraph.Node) bool {
	if n.Lit != nil {
		return true // creation edges only exist from in-scope nodes
	}
	sig := n.Func.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return true // free function: runs inline in the callback
	}
	return receiverNamed(recv.Type()) == owner
}

func callPos(call callgraph.Call) token.Pos {
	if call.Site != nil {
		return call.Site.Pos()
	}
	return call.Callees[0].Pos()
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// componentOf returns the component a value of type t belongs to, or nil.
func (dc *domainCtx) componentOf(t types.Type) *types.Named {
	named := receiverNamed(derefType(t))
	if named == nil {
		return nil
	}
	for _, c := range dc.components {
		if c == named {
			return c
		}
	}
	return nil
}

func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// checkBody flags domain-violating writes in one in-scope body. Nested
// function literals are skipped: they are separate nodes, analyzed when
// the scope walk reaches them.
func (dc *domainCtx) checkBody(owner *types.Named, n *callgraph.Node) {
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				dc.checkTarget(owner, n, lhs)
			}
		case *ast.IncDecStmt:
			dc.checkTarget(owner, n, st.X)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				dc.checkTarget(owner, n, st.Key)
				dc.checkTarget(owner, n, st.Value)
			}
		}
		return true
	})
}

// checkTarget classifies one assignment target, walking selector, index
// and dereference steps toward the root. A step that crosses into a
// different component flags the write; a root resolving to a
// package-level variable flags it too.
func (dc *domainCtx) checkTarget(owner *types.Named, n *callgraph.Node, lhs ast.Expr) {
	if lhs == nil {
		return
	}
	info := n.Pkg.Info
	e := ast.Unparen(lhs)
	for {
		switch ex := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(ex.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := info.Uses[ex.Sel].(*types.Var); ok && isPkgLevel(v) {
						dc.flag(lhs.Pos(), owner, "write to package-level var %s.%s", id.Name, ex.Sel.Name)
					}
					return
				}
			}
			if comp := dc.componentOf(info.TypeOf(ex.X)); comp != nil && comp != owner {
				dc.flag(lhs.Pos(), owner, "write to field %s of component %s", ex.Sel.Name, comp.Obj().Name())
				return
			}
			e = ast.Unparen(ex.X)
		case *ast.StarExpr:
			if comp := dc.componentOf(info.TypeOf(ex.X)); comp != nil && comp != owner {
				dc.flag(lhs.Pos(), owner, "write through pointer into component %s", comp.Obj().Name())
				return
			}
			e = ast.Unparen(ex.X)
		case *ast.IndexExpr:
			e = ast.Unparen(ex.X)
		case *ast.Ident:
			if v, ok := objOf(info, ex).(*types.Var); ok && isPkgLevel(v) {
				dc.flag(lhs.Pos(), owner, "write to package-level var %s", ex.Name)
			}
			return
		default:
			return
		}
	}
}

func (dc *domainCtx) flag(pos token.Pos, owner *types.Named, format string, args ...interface{}) {
	if dc.flagged[pos] {
		return
	}
	dc.flagged[pos] = true
	msg := format + " from the event domain of " + shortTypeName(owner) + "; event callbacks may only mutate their own component's state"
	dc.pass.Reportf(pos, msg, args...)
}

func shortTypeName(named *types.Named) string {
	s := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	return strings.TrimPrefix(s, "main.")
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isPkgLevel reports whether v is a package-scope variable.
func isPkgLevel(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// methodNode returns the node of the named method of *T, or nil.
func (dc *domainCtx) methodNode(named *types.Named, name string) *callgraph.Node {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return dc.g.NodeOf(fn.Origin())
}
