// Package analysis is a small stdlib-only static-analysis framework for
// enforcing simulator invariants the Go compiler cannot see: determinism
// (no wall clocks, no unseeded randomness, no order-dependent map
// iteration), cycle/nanosecond unit hygiene, and ledger ground-truth
// coverage. It is intentionally free of
// golang.org/x/tools — analyzers are built directly on go/ast, go/parser
// and go/types, and packages are loaded by a module-aware source importer
// (see load.go), so the linter builds with nothing but the standard
// library.
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics. The cmd/asaplint driver loads every package in the module,
// runs all registered analyzers, filters findings through
// //asaplint:ignore directives (see ignore.go) and exits non-zero if any
// finding survives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects the pass's package and
// reports findings via pass.Reportf; it must not retain the pass.
type Analyzer interface {
	// Name is the analyzer's short identifier, used in diagnostics and in
	// //asaplint:ignore directives.
	Name() string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc() string
	// Run analyzes one package.
	Run(pass *Pass)
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass gives an analyzer one type-checked package to inspect.
type Pass struct {
	Analyzer string         // name of the running analyzer
	Path     string         // import path of the package under analysis
	Fset     *token.FileSet // positions for Files
	Files    []*ast.File    // parsed source, with comments
	Pkg      *types.Package // type-checked package
	Info     *types.Info    // Types, Defs, Uses, Selections for Files
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectOf resolves an identifier through Defs and Uses.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModuleAnalyzer is a static check that needs the whole module at once —
// the call-graph analyzers (alloccheck, domaincheck) resolve calls across
// package boundaries, so a per-package Pass cannot carry enough context.
// RunModule inspects every loaded package and reports findings positioned
// wherever the offending code lives; the driver buckets them per package
// for ignore filtering.
type ModuleAnalyzer interface {
	// Name is the analyzer's short identifier, used in diagnostics and in
	// //asaplint:ignore directives.
	Name() string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc() string
	// RunModule analyzes the whole module.
	RunModule(pass *ModulePass)
}

// ModulePass gives a module analyzer every type-checked package of the
// module to inspect.
type ModulePass struct {
	Analyzer string         // name of the running analyzer
	Fset     *token.FileSet // positions, shared across all packages
	Pkgs     []*Package     // all loaded packages, sorted by import path
	report   func(Diagnostic)
	ignored  func(token.Pos) bool
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Ignored reports whether pos carries (or sits directly below) an
// //asaplint:ignore directive naming this analyzer. Findings there would
// be filtered anyway; module analyzers also consult it mid-analysis when
// a directive changes what is reachable (see IgnoreMatcher).
func (p *ModulePass) Ignored(pos token.Pos) bool { return p.ignored(pos) }

// RunModule applies one module analyzer to the loaded module and returns
// its raw findings (before ignore-directive filtering), sorted.
func RunModule(a ModuleAnalyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	if len(pkgs) == 0 {
		return diags
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	pass := &ModulePass{
		Analyzer: a.Name(),
		Fset:     pkgs[0].Fset,
		Pkgs:     pkgs,
		report:   func(d Diagnostic) { diags = append(diags, d) },
		ignored:  IgnoreMatcher(pkgs[0].Fset, files, a.Name()),
	}
	a.RunModule(pass)
	SortDiagnostics(diags)
	return diags
}

// Run applies one analyzer to one loaded package and returns its raw
// findings (before ignore-directive filtering), sorted by position.
func Run(a Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a.Name(),
		Path:     pkg.Path,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	a.Run(pass)
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
}
