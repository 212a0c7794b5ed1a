package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// TestRepoIsClean runs the full analyzer suite over the whole module and
// fails on any finding, making "dfvet is clean" part of the ordinary
// test gate — a seeded violation anywhere in the repo fails `go test
// ./...` too, not just the CI lint step.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	pkgs, err := framework.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := framework.RunAnalyzers(analyzers, pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}

// TestAnalyzerNamesUnique guards the -only flag's name lookup.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" {
			t.Error("analyzer with empty name")
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("expected the 6-analyzer suite, have %d", len(seen))
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, a := range analyzers {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-only", "nosuch", "."}, &out, &errOut); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("unknown-analyzer stderr: %q", errOut.String())
	}
}

func TestRunCleanPackage(t *testing.T) {
	// The test binary's working directory is this package's directory,
	// so "." resolves to repro/cmd/dfvet — which must be clean.
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "determinism,hotpath", "."}, &out, &errOut); code != 0 {
		t.Fatalf("exited %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestRunFlagsSeededViolation is the acceptance check from the analyzer
// suite's introduction: a synthetic module containing a raw float64
// json-tagged field (the PR-4 ±Inf encoding bug as source code) must
// make dfvet exit 1 with a jsonfloat finding.
func TestRunFlagsSeededViolation(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("go.mod", "module repro\n\ngo 1.24\n")
	mustWrite("schema/schema.go", "package schema\n\n"+
		"// Report is a seeded violation: Epsilon must be a JSONFloat.\n"+
		"type Report struct {\n"+
		"\tEpsilon float64 `json:\"epsilon\"`\n"+
		"}\n")
	t.Chdir(dir)

	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "jsonfloat") || !strings.Contains(out.String(), "Epsilon") {
		t.Errorf("diagnostics did not name the seeded violation:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %q", errOut.String())
	}
}

// TestRunFlagsTestOnlyExports runs dfvet inside the deadexport fixture
// module, whose internal package declares three exported symbols and
// two exported methods that no non-test code references: dfvet must
// exit 1 and name each of them.
func TestRunFlagsTestOnlyExports(t *testing.T) {
	t.Chdir(filepath.Join("..", "..", "internal", "analysis", "deadexport", "testdata", "src", "mod"))
	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, name := range []string{"OnlyTests", "SelfOnly", "Node", "Node.Next", "Box.OnlyTests"} {
		if !strings.Contains(out.String(), "[deadexport] "+name+" ") {
			t.Errorf("no deadexport finding for %s:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 5 {
		t.Errorf("got %d findings, want 5:\n%s", n, out.String())
	}
}
