// Package framework is the self-contained static-analysis substrate
// behind cmd/dfvet. It mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) on the standard library alone — go/ast,
// go/parser, go/types and export data produced by the Go toolchain — so
// the repository's project-specific invariants can be enforced at vet
// time without any module dependency.
//
// The substrate has three parts:
//
//   - Analyzer/Pass/Diagnostic (this file): one Analyzer per invariant;
//     a Pass hands it the type-checked syntax of one package and collects
//     the diagnostics it reports.
//   - Load (load.go): package loading. Source files are parsed and
//     type-checked against compiled export data obtained from
//     `go list -deps -export`, which works offline and resolves both
//     standard-library and in-module imports.
//   - analysistest (../analysistest): golden-comment test runner for the
//     analyzers, driving deliberately-bad fixture packages under
//     testdata/src.
//
// A diagnostic on any line can be suppressed with a comment on the same
// line or the line above:
//
//	//df:ignore <analyzer> — <reason>
//
// Suppressions are expected to be rare and reviewed; the reason is
// mandatory by convention (the comment is the audit trail).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters; a
	// short lowercase slug ("determinism", "hotpath", ...).
	Name string
	// Doc is the one-paragraph contract the analyzer enforces, shown by
	// `dfvet -list`.
	Doc string
	// AppliesTo reports whether the analyzer wants to inspect the given
	// package. A nil AppliesTo means every loaded package. The driver
	// honors it; the analysistest harness bypasses it (fixtures are
	// synthetic packages outside any real scope).
	AppliesTo func(p *Package) bool
	// Run inspects one package.
	Run func(pass *Pass) error
}

// Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package: the parsed files, the
// type information, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	// ignores maps file name → set of lines carrying a df:ignore
	// suppression naming this pass's analyzer.
	ignores map[string]map[int]bool
}

// Reportf records a diagnostic at pos unless a df:ignore comment for
// this analyzer covers the line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if lines, ok := p.ignores[position.Filename]; ok {
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Syntax }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.TypesInfo }

// Inspect walks every file of the package in source order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, fn)
	}
}

// ImportedPkg resolves the package an identifier refers to when it names
// an import (`rand` in rand.Int). It returns the imported package path
// and true, or "", false when the expression is not a package name.
func (p *Pass) ImportedPkg(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := p.Pkg.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}

// CalleePkgFunc resolves a call expression to (package path, function
// name) when the callee is a selector on an imported package —
// fmt.Errorf → ("fmt", "Errorf"). ok is false for method calls, local
// calls and builtins.
func (p *Pass) CalleePkgFunc(call *ast.CallExpr) (pkg, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	path, isPkg := p.ImportedPkg(sel.X)
	if !isPkg {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.TypesInfo.TypeOf(e)
}

// run executes one analyzer over one package, appending to sink.
func run(a *Analyzer, pkg *Package, sink *[]Diagnostic) error {
	pass := &Pass{
		Analyzer: a,
		Pkg:      pkg,
		diags:    sink,
		ignores:  collectIgnores(pkg, a.Name),
	}
	return a.Run(pass)
}

// RunAnalyzers applies every analyzer to every package it opts into and
// returns the diagnostics sorted by position for stable output.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg) {
				continue
			}
			if err := run(a, pkg, &diags); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// RunSingle applies one analyzer to one package regardless of AppliesTo
// — the analysistest entry point.
func RunSingle(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	if err := run(a, pkg, &diags); err != nil {
		return nil, err
	}
	return diags, nil
}

// collectIgnores scans a package's comments for df:ignore suppressions
// naming the given analyzer and returns them as file → line set.
func collectIgnores(pkg *Package, analyzer string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "df:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "df:ignore"))
				if !strings.HasPrefix(rest, analyzer) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// HasDirective reports whether a function declaration carries the given
// //df:<name> directive in its doc comment.
func HasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
