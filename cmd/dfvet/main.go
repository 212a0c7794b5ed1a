// Command dfvet is the repository's custom static-analysis suite: a
// multichecker that runs the six project-specific analyzers over the
// module and reports every invariant violation with file:line
// positions, vet-style.
//
//	dfvet ./...             # run all analyzers over the whole module
//	dfvet -only hotpath .   # run a single analyzer
//	dfvet -list             # list analyzers with their one-line docs
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error.
// Suppress an individual finding with a trailing (or preceding-line)
// comment `//df:ignore <analyzer> — <reason>`; the reason is part of
// the convention, not decoration.
//
// dfvet deliberately runs the analyzers directly rather than through
// `go vet -vettool`: the framework loads packages itself (go list
// -export plus the gc importer), so it needs no network and no
// golang.org/x/tools dependency.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/jsonfloat"
	"repro/internal/analysis/optvalidate"
)

// analyzers is the full suite, in the order findings are attributed.
var analyzers = []*framework.Analyzer{
	determinism.Analyzer,
	jsonfloat.Analyzer,
	ctxflow.Analyzer,
	hotpath.Analyzer,
	optvalidate.Analyzer,
	deadexport.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dfvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flags.Bool("list", false, "list analyzers and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: dfvet [-only name,name] [-list] [packages]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite := analyzers
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				fmt.Fprintf(stderr, "dfvet: unknown analyzer %q (have: %s)\n", name, strings.Join(known, ", "))
				return 2
			}
			suite = append(suite, a)
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "dfvet: %v\n", err)
		return 2
	}
	pkgs, err := framework.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "dfvet: %v\n", err)
		return 2
	}

	diags, err := framework.RunAnalyzers(suite, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "dfvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dfvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
