// Package deadexport fails on production code that only tests reach:
// an exported package-level func, type, var or const declared in a
// non-test file of an internal/ package that no non-test code
// references. Such a symbol is kept alive by its own tests alone — it
// costs reading and maintenance, and its tests measure code that no
// command, example or server runs. Delete it, or, when a test still
// needs it as an oracle, move it into a _test.go file.
//
// References are counted across the whole module and every module
// nested in its directory tree (perfbench imports internal/loadgen from
// a module of its own), whatever packages dfvet was asked to check:
//
//   - only non-test files count, since the loader parses no others;
//   - a reference from inside the symbol's own declaration does not
//     count (recursion, or a type named by its own methods);
//   - packages whose name ends in "test" are exempt: they are test
//     helpers, as in lint.sh's dead-package rule;
//   - methods are out of scope, since interface satisfaction makes an
//     unreferenced method no proof of dead code;
//   - `//df:ignore deadexport — <reason>` on the declared name's line or
//     the line above it (the last line of its doc comment) suppresses
//     the finding.
//
// Each package is type-checked against export data, so the same symbol
// is a different types.Object in its own package and in each importer:
// symbols are matched by (package path, name). A use of a generic func
// is recorded against its generic declaration, not the instance, so an
// instantiation counts as a reference without further mapping.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/analysis/framework"
)

// Analyzer is the test-only export check.
var Analyzer = &framework.Analyzer{
	Name: "deadexport",
	Doc: "exported package-level funcs, types, vars and consts of internal/ " +
		"packages must be referenced by non-test code of the module or a " +
		"module nested in it; delete what only tests reach, or move it into " +
		"a _test.go file",
	AppliesTo: func(p *framework.Package) bool {
		return p.ModuleDir != "" && strings.Contains("/"+p.ImportPath+"/", "/internal/") &&
			!strings.HasSuffix(p.Name, "test")
	},
	Run: run,
}

// symbol identifies a package-level object across separately
// type-checked packages.
type symbol struct{ pkg, name string }

func run(pass *framework.Pass) error {
	refs, err := moduleRefs(pass.Pkg.ModuleDir)
	if err != nil {
		return err
	}
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			declared(decl, func(id *ast.Ident, _ ast.Node) {
				if id.IsExported() && !refs[symbol{pass.Pkg.ImportPath, id.Name}] {
					pass.Reportf(id.Pos(), "%s is exported, but no non-test code references it outside its declaration", id.Name)
				}
			})
		}
	}
	return nil
}

// declared calls fn with each package-level name that decl introduces
// and the node declaring it; methods introduce none.
func declared(decl ast.Decl, fn func(id *ast.Ident, n ast.Node)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			fn(d.Name, d)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				fn(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					fn(id, s)
				}
			}
		}
	}
}

// refsByModule memoizes moduleRefs per module root for the life of the
// process: the analyzer runs once per package, and every run needs the
// same module-wide index.
var refsByModule = struct {
	sync.Mutex
	m map[string]map[symbol]bool
}{m: map[string]map[symbol]bool{}}

// moduleRefs loads the non-test files of the module rooted at dir and
// of every module nested under it, and returns the package-level
// symbols they reference outside the symbols' own declarations.
func moduleRefs(dir string) (map[symbol]bool, error) {
	refsByModule.Lock()
	defer refsByModule.Unlock()
	if refs, ok := refsByModule.m[dir]; ok {
		return refs, nil
	}
	modules, err := nestedModules(dir)
	if err != nil {
		return nil, err
	}
	refs := map[symbol]bool{}
	for _, mod := range append([]string{dir}, modules...) {
		pkgs, err := framework.Load(mod, "./...")
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			addRefs(pkg, refs)
		}
	}
	refsByModule.m[dir] = refs
	return refs, nil
}

// nestedModules lists the directories under root, root excluded, that
// hold a go.mod. It skips what the go command skips in ./...: testdata,
// vendor, and directories whose name starts with "." or "_".
func nestedModules(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == root {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// addRefs records every package-level object pkg's files use, except
// uses inside the object's own declaration.
func addRefs(pkg *framework.Package, refs map[symbol]bool) {
	spans := declSpans(pkg)
	for id, obj := range pkg.TypesInfo.Uses {
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			continue // builtins, fields, methods, locals
		}
		if within(spans[obj], id.Pos()) {
			continue
		}
		refs[symbol{obj.Pkg().Path(), obj.Name()}] = true
	}
}

// span is a declaration's source range.
type span struct{ from, to token.Pos }

// declSpans maps each of pkg's package-level objects to the source of
// its declaration. A type's methods are part of its declaration.
func declSpans(pkg *framework.Package) map[types.Object][]span {
	out := map[types.Object][]span{}
	add := func(obj types.Object, n ast.Node) {
		if obj != nil {
			out[obj] = append(out[obj], span{n.Pos(), n.End()})
		}
	}
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			declared(decl, func(id *ast.Ident, n ast.Node) { add(pkg.TypesInfo.Defs[id], n) })
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				add(receiver(pkg.TypesInfo, fn), fn)
			}
		}
	}
	return out
}

// receiver returns the type name a method is declared on.
func receiver(info *types.Info, fn *ast.FuncDecl) types.Object {
	f, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := f.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func within(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}
