package deadexport

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// TestFixtureModule runs the check over testdata/src/mod, a module with
// one exported symbol or method per case, and expects exactly the five
// it must flag.
func TestFixtureModule(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.RunAnalyzers([]*framework.Analyzer{Analyzer}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range diags {
		name, _, _ := strings.Cut(d.Message, " ")
		flagged[name] = true
		if filepath.Base(d.Position.Filename) != "lib.go" {
			t.Errorf("finding outside lib.go: %s", d)
		}
	}
	for name, want := range map[string]bool{
		"OnlyTests": true,  // only a _test.go file calls it
		"SelfOnly":  true,  // only its own body references it
		"Node":      true,  // only its own methods name it
		"FromTool":  false, // a nested module references it
		"Generic":   false, // a nested module instantiates it
		"Helper":    false, // its package is a *test package
		"Ignored":   false, // suppressed with //df:ignore

		"Node.Next":      true,  // a method nothing calls
		"Box.OnlyTests":  true,  // a method only a _test.go file calls
		"Box.Used":       false, // a nested module calls it
		"Box.Size":       false, // an interface declares its name
		"Box.Quiet":      false, // suppressed with //df:ignore
		"Public.Exposed": false, // a public package aliases its type
	} {
		if flagged[name] != want {
			t.Errorf("%s flagged = %v, want %v", name, flagged[name], want)
		}
	}
	if len(diags) != 5 {
		t.Errorf("got %d findings, want 5: %v", len(diags), diags)
	}
}

func TestNestedModulesSkipsWhatGoListSkips(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := nestedModules(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != filepath.Join(dir, "tool") {
		t.Errorf("nestedModules = %v, want [%s]", got, filepath.Join(dir, "tool"))
	}
	// The module's own testdata holds modules too, and must be skipped.
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := nestedModules(self); err != nil || len(got) != 0 {
		t.Errorf("nestedModules(%s) = %v, %v; want none", self, got, err)
	}
}
