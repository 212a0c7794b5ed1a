package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string // package name; "main" for commands
	Dir        string
	GoFiles    []string
	Module     string // module path; "" for fixture packages
	ModuleDir  string // module root directory; "" for fixture packages

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` in dir over the given
// patterns and decodes the stream of package records. -export compiles
// (or reuses from the build cache) every listed package, so each
// dependency record carries the path of its compiled export data — the
// offline substitute for a module download of x/tools.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// exportLookup builds the importer lookup function over compiled export
// data files keyed by import path.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// typeCheck parses and type-checks one directory's files as a package,
// resolving imports through the export map.
func typeCheck(importPath, dir string, goFiles []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var syntax []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	if len(syntax) == 0 {
		return nil, fmt.Errorf("package %s: no Go files", importPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(exports)),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Name:       syntax[0].Name.Name,
		Dir:        dir,
		GoFiles:    goFiles,
		Fset:       fset,
		Syntax:     syntax,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// Load lists, parses and type-checks the packages matching the given
// patterns (e.g. "./...") relative to dir, which must lie inside a Go
// module. Non-test source files only; packages are returned in
// deterministic import-path order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typeCheck(p.ImportPath, p.Dir, p.GoFiles, exports)
		if err != nil {
			return nil, err
		}
		if p.Module != nil {
			pkg.Module, pkg.ModuleDir = p.Module.Path, p.Module.Dir
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadFixture type-checks a single directory of Go files that is not
// itself a listable package (an analysistest testdata fixture). Imports
// are resolved by asking the toolchain for export data from moduleDir —
// fixtures may import the standard library and in-module packages, but
// not sibling fixtures.
func LoadFixture(moduleDir, fixtureDir string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no Go files in %s", fixtureDir)
	}
	sort.Strings(goFiles)

	// A first parse pass (imports only) discovers what export data the
	// fixture needs.
	fset := token.NewFileSet()
	importSet := map[string]bool{}
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(fixtureDir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path := imp.Path.Value
			importSet[path[1:len(path)-1]] = true
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		patterns := make([]string, 0, len(importSet))
		for p := range importSet {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(moduleDir, patterns...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return typeCheck(filepath.Base(fixtureDir), fixtureDir, goFiles, exports)
}
