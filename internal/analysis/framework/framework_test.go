package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the enclosing go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above package directory")
		}
		dir = parent
	}
}

// toycheck reports every call to a fmt function. Defined per test so
// closures can capture testing state.
func toycheck(extra func(pass *Pass, call *ast.CallExpr)) *Analyzer {
	return &Analyzer{
		Name: "toycheck",
		Doc:  "reports fmt calls (framework self-test)",
		Run: func(pass *Pass) error {
			pass.Inspect(func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkg, fn, ok := pass.CalleePkgFunc(call); ok && pkg == "fmt" {
					pass.Reportf(call.Pos(), "call to fmt.%s", fn)
					if extra != nil {
						extra(pass, call)
					}
				}
				return true
			})
			return nil
		},
	}
}

func loadToy(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadFixture(repoRoot(t), filepath.Join("testdata", "src", "toy"))
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	return pkg
}

func TestLoadTypeChecksRealPackage(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "repro/internal/core" || pkg.Name != "core" {
		t.Errorf("loaded %s (package %s), want repro/internal/core (core)", pkg.ImportPath, pkg.Name)
	}
	if pkg.Module != "repro" {
		t.Errorf("Module = %q, want repro", pkg.Module)
	}
	if len(pkg.Syntax) == 0 || pkg.Types == nil || pkg.TypesInfo == nil {
		t.Error("package loaded without syntax or type information")
	}
}

func TestLoadReportsBadPattern(t *testing.T) {
	if _, err := Load(repoRoot(t), "./no/such/package"); err == nil {
		t.Fatal("Load on a nonexistent pattern succeeded")
	}
}

func TestLoadFixtureErrors(t *testing.T) {
	root := repoRoot(t)
	if _, err := LoadFixture(root, filepath.Join("testdata", "no-such-dir")); err == nil {
		t.Error("missing fixture dir: want error")
	}
	empty := t.TempDir()
	if _, err := LoadFixture(root, empty); err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("empty fixture dir: got %v, want no-Go-files error", err)
	}
	broken := t.TempDir()
	if err := os.WriteFile(filepath.Join(broken, "bad.go"), []byte("package {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFixture(root, broken); err == nil {
		t.Error("syntactically broken fixture: want error")
	}
}

func TestRunSingleHelpersAndIgnore(t *testing.T) {
	pkg := loadToy(t)
	sawType := false
	a := toycheck(func(pass *Pass, call *ast.CallExpr) {
		if pass.Pkg.Fset == nil || pass.TypesInfo() == nil || len(pass.Files()) != 1 {
			t.Error("Pass accessors returned empty state")
		}
		if pass.TypeOf(call) != nil {
			sawType = true
		}
	})
	diags, err := RunSingle(a, pkg)
	if err != nil {
		t.Fatalf("RunSingle: %v", err)
	}
	// Shout's first two calls and Mismatch's call are reported; Shout's
	// third is suppressed by the df:ignore on the line above, and the
	// othercheck directive must not suppress toycheck.
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "toycheck" || !strings.Contains(d.Message, "fmt.Println") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		if !strings.Contains(d.String(), "toy.go") {
			t.Errorf("String() lacks position: %s", d.String())
		}
	}
	if !sawType {
		t.Error("TypeOf never resolved a call expression")
	}
}

func TestRunAnalyzersScopeAndOrder(t *testing.T) {
	pkg := loadToy(t)
	skipped := &Analyzer{
		Name:      "skipped",
		Doc:       "never applies",
		AppliesTo: func(p *Package) bool { return p.Module == "repro" },
		Run: func(pass *Pass) error {
			t.Error("AppliesTo=false analyzer ran")
			return nil
		},
	}
	diags, err := RunAnalyzers([]*Analyzer{toycheck(nil), skipped}, []*Package{pkg})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Position.Line < diags[i-1].Position.Line {
			t.Fatalf("diagnostics not sorted by line: %v", diags)
		}
	}
}

func TestRunAnalyzersPropagatesRunError(t *testing.T) {
	pkg := loadToy(t)
	failing := &Analyzer{
		Name: "failing",
		Doc:  "always errors",
		Run:  func(pass *Pass) error { return os.ErrInvalid },
	}
	if _, err := RunAnalyzers([]*Analyzer{failing}, []*Package{pkg}); err == nil {
		t.Fatal("analyzer error was swallowed")
	}
}

func TestExportLookupMissingPath(t *testing.T) {
	lookup := exportLookup(map[string]string{})
	if _, err := lookup("example.com/nope"); err == nil {
		t.Fatal("lookup of unknown import path succeeded")
	}
}

func TestHasDirective(t *testing.T) {
	src := `package p

//df:hotpath
func Annotated() {}

// df:hotpath
func Spaced() {}

//df:hotpath reason trailing words
func WithArgs() {}

//df:hotpathy
func Prefixy() {}

// plain comment
func Plain() {}

func Bare() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Annotated": true,
		"Spaced":    true,
		"WithArgs":  true,
		"Prefixy":   false,
		"Plain":     false,
		"Bare":      false,
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if got := HasDirective(fn, "df:hotpath"); got != want[fn.Name.Name] {
			t.Errorf("HasDirective(%s) = %v, want %v", fn.Name.Name, got, want[fn.Name.Name])
		}
	}
}
