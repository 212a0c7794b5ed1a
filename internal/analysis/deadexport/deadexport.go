// Package deadexport fails on production code that only tests reach:
// an exported package-level func, type, var or const, or an exported
// method, declared in a non-test file of an internal/ package that no
// non-test code references. Such a symbol is kept alive by its own
// tests alone — it costs reading and maintenance, and its tests measure
// code that no command, example or server runs. Delete it, or, when a
// test still needs it as an oracle, move it into a _test.go file.
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
//   - a method counts as referenced when a selector names it (a call, a
//     method value or a method expression, promoted ones included);
//   - a method is exempt when an interface of the module's import
//     closure (named or not, the universe's error included) declares
//     its name: a call through that interface names the interface's
//     method, not this one;
//   - a method is exempt when its type is aliased by a package-level
//     type of a non-internal, non-main package (fairness.Counts =
//     core.Counts): the methods of such a type are public API;
//   - `//df:ignore deadexport — <reason>` on the declared name's line or
//     the line above it (the last line of its doc comment) suppresses
//     the finding.
//
// Reflection is the way a method can still be called without a
// selector or an interface naming it: text/template, and
// reflect.Value's Method and MethodByName, call methods by name. No
// package of this module uses any of them, so a method the rules above
// do not reach is one nothing calls. encoding/json and fmt find the
// methods they call (MarshalJSON, String, Error) through interfaces
// that their packages declare, which the interface rule covers.
//
// Each package is type-checked against export data, so the same symbol
// is a different types.Object in its own package and in each importer:
// symbols are matched by (package path, name), a method's name being
// "Type.Method". A use of a generic func is recorded against its
// generic declaration, not the instance, so an instantiation counts as
// a reference without further mapping; a method of an instantiated
// type is mapped to its origin.
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
	Doc: "exported package-level funcs, types, vars and consts, and exported " +
		"methods, of internal/ packages must be referenced by non-test code of " +
		"the module or a module nested in it; delete what only tests reach, " +
		"or move it into a _test.go file",
	AppliesTo: func(p *framework.Package) bool {
		return p.ModuleDir != "" && isInternal(p.ImportPath) && !strings.HasSuffix(p.Name, "test")
	},
	Run: run,
}

// symbol identifies a package-level object or a method ("Type.Method")
// across separately type-checked packages.
type symbol struct{ pkg, name string }

// index is what the check knows of a module and the modules nested in
// it.
type index struct {
	refs       map[symbol]bool // symbols non-test code references
	ifaceNames map[string]bool // method names some interface declares
	aliased    map[symbol]bool // internal types a public package aliases
}

func run(pass *framework.Pass) error {
	idx, err := moduleIndex(pass.Pkg.ModuleDir)
	if err != nil {
		return err
	}
	path := pass.Pkg.ImportPath
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			declared(decl, func(id *ast.Ident, _ ast.Node) {
				if id.IsExported() && !idx.refs[symbol{path, id.Name}] {
					pass.Reportf(id.Pos(), "%s is exported, but no non-test code references it outside its declaration", id.Name)
				}
			})
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || idx.ifaceNames[fn.Name.Name] {
				continue
			}
			recv := receiver(pass.TypesInfo(), fn)
			if recv == nil || idx.aliased[symbol{path, recv.Name()}] {
				continue
			}
			if name := recv.Name() + "." + fn.Name.Name; !idx.refs[symbol{path, name}] {
				pass.Reportf(fn.Name.Pos(), "%s is exported, but no non-test code calls it outside its declaration, no interface declares it, and no public alias exposes its type", name)
			}
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

// indexByModule memoizes moduleIndex per module root for the life of
// the process: the analyzer runs once per package, and every run needs
// the same module-wide index.
var indexByModule = struct {
	sync.Mutex
	m map[string]*index
}{m: map[string]*index{}}

// moduleIndex loads the non-test files of the module rooted at dir and
// of every module nested under it, and indexes the symbols they
// reference outside the symbols' own declarations, the method names of
// every interface in their import closure, and the internal types their
// public packages alias.
func moduleIndex(dir string) (*index, error) {
	indexByModule.Lock()
	defer indexByModule.Unlock()
	if idx, ok := indexByModule.m[dir]; ok {
		return idx, nil
	}
	modules, err := nestedModules(dir)
	if err != nil {
		return nil, err
	}
	idx := &index{refs: map[symbol]bool{}, ifaceNames: map[string]bool{}, aliased: map[symbol]bool{}}
	addIfaceNames(types.Universe.Lookup("error").Type(), idx.ifaceNames)
	seen := map[*types.Package]bool{}
	for _, mod := range append([]string{dir}, modules...) {
		pkgs, err := framework.Load(mod, "./...")
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			addRefs(pkg, idx.refs)
			addClosureIfaces(pkg.Types, seen, idx.ifaceNames)
			for _, tv := range pkg.TypesInfo.Types {
				addIfaceNames(tv.Type, idx.ifaceNames) // interfaces written in the code, named or not
			}
			addAliases(pkg, idx.aliased)
		}
	}
	indexByModule.m[dir] = idx
	return idx, nil
}

// addClosureIfaces adds the method names of every package-level
// interface type of p and of the packages it imports, transitively.
func addClosureIfaces(p *types.Package, seen map[*types.Package]bool, names map[string]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			addIfaceNames(tn.Type(), names)
		}
	}
	for _, imp := range p.Imports() {
		addClosureIfaces(imp, seen, names)
	}
}

// addIfaceNames adds the method names t declares when t is an
// interface.
func addIfaceNames(t types.Type, names map[string]bool) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
}

// addAliases records the internal named types that a non-internal,
// non-main package of the module aliases at package level.
func addAliases(pkg *framework.Package, aliased map[symbol]bool) {
	if pkg.Name == "main" || isInternal(pkg.ImportPath) {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && n.Obj().Pkg() != nil && isInternal(n.Obj().Pkg().Path()) {
			aliased[symbol{n.Obj().Pkg().Path(), n.Obj().Name()}] = true
		}
	}
}

func isInternal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

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

// addRefs records every package-level object and method pkg's files
// use, except uses inside the object's own declaration.
func addRefs(pkg *framework.Package, refs map[symbol]bool) {
	spans := declSpans(pkg)
	for id, obj := range pkg.TypesInfo.Uses {
		if obj.Pkg() == nil {
			continue // builtins
		}
		name := obj.Name()
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
			obj = f.Origin()
			recv := recvName(f.Signature().Recv().Type())
			if recv == nil {
				continue // a method of an unnamed interface
			}
			name = recv.Name() + "." + name
		} else if obj.Parent() != obj.Pkg().Scope() {
			continue // fields, locals
		}
		if within(spans[obj], id.Pos()) {
			continue
		}
		refs[symbol{obj.Pkg().Path(), name}] = true
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
				add(pkg.TypesInfo.Defs[fn.Name], fn)
			}
		}
	}
	return out
}

// receiver returns the type name a method is declared on.
func receiver(info *types.Info, fn *ast.FuncDecl) *types.TypeName {
	f, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	return recvName(f.Signature().Recv().Type())
}

// recvName returns the type name of a method receiver type, or nil for
// an unnamed interface's method. An instantiated type maps to its
// generic declaration.
func recvName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
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
