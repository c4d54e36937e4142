// Package statcheck enforces the handle-based stats discipline on the
// simulator's hot paths: per-op code in the converted packages
// (internal/machine, internal/model, internal/persist) must not write
// counters through string keys — St.Inc("name") hashes the key on every
// call — but through stats.Counter handles resolved once at construction
// (st.Counter(key)). String-keyed writes stay legal on cold paths (setup,
// sampling, reporting); a string-keyed write inside one of the known hot
// functions needs an //asaplint:ignore statcheck directive naming why it
// is cold, the escape hatch every analyzer shares.
//
// The stats Set is matched structurally (a named struct type called Set
// with an Inc method), so fixtures need no non-stdlib imports.
package statcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/analysis"
)

// New returns the statcheck analyzer.
func New() analysis.Analyzer { return checker{} }

type checker struct{}

func (checker) Name() string { return "statcheck" }

func (checker) Doc() string {
	return "hot functions in converted packages (machine, model, persist) must use pre-resolved stats.Counter handles, not string-keyed Inc/Add/SetMax"
}

// convertedPkgs are the packages whose per-op stat writes were rewritten
// to Counter handles.
var convertedPkgs = []string{
	"internal/machine",
	"internal/model",
	"internal/persist",
}

// hotFuncs names the functions on the per-access, per-store, per-flush and
// per-conflict paths. A string-keyed counter write inside one of these (or
// any function literal nested in one) is a hot-path regression.
var hotFuncs = map[string]bool{
	// machine: the per-op core loop and the cache access path.
	"access":  true,
	"step":    true,
	"acquire": true,
	// model: store enqueue, fences, flush issue/reply, commit protocol,
	// conflict-driven dependency tracking.
	"tryEnqueue":    true,
	"Store":         true,
	"Ofence":        true,
	"Dfence":        true,
	"Conflict":      true,
	"addDependency": true,
	"flushOne":      true,
	"issueFlushes":  true,
	"onFlushReply":  true,
	"onAck":         true,
	"tryCommit":     true,
	"finishCommit":  true,
	"fence":         true,
	// persist: the controller's job-service path.
	"enqueueFlush":  true,
	"nack":          true,
	"processFlush":  true,
	"processCommit": true,
	"commitNext":    true,
	"readCurrent":   true,
	"readDone":      true,
	"insertWrite":   true,
}

// checkedMethods are the string-keyed counter writes; Observe is exempt
// because distributions only feed the cold periodic sampler.
var checkedMethods = map[string]bool{
	"Inc":    true,
	"Add":    true,
	"SetMax": true,
}

func (c checker) Run(pass *analysis.Pass) {
	converted := false
	for _, p := range convertedPkgs {
		if strings.HasSuffix(pass.Path, p) {
			converted = true
			break
		}
	}
	if !converted {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotFuncs[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					c.checkCall(pass, fd.Name.Name, call)
				}
				return true
			})
		}
	}
}

// checkCall flags X.Inc("literal")-shaped writes where X is a stats Set.
func (c checker) checkCall(pass *analysis.Pass, hot string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !checkedMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return
	}
	if !isStatsSet(pass.TypeOf(sel.X)) {
		return
	}
	pass.Reportf(call.Pos(),
		"string-keyed %s.%s(%s) in hot function %s hashes the stat name per call: resolve a stats.Counter handle at construction, or annotate a cold path with //asaplint:ignore statcheck <reason>",
		types.ExprString(sel.X), sel.Sel.Name, lit.Value, hot)
}

// isStatsSet matches any named struct type called Set that has an Inc
// method, directly or behind a pointer — internal/stats.Set in the real
// tree, a local stand-in in fixtures.
func isStatsSet(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Set" {
		return false
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "Inc" {
			return true
		}
	}
	return false
}
