// Command tianhelint runs the repository's custom static analyzer suite
// (internal/analyzers) over every non-test package in the module and
// reports violations of the simulator's determinism, telemetry, and
// numerics invariants with file:line:col positions. It exits 1 when any
// finding survives lint:ignore suppression, 2 on load errors, 0 on a
// clean tree — `make lint` and scripts/check.sh gate on exactly this.
//
// Usage:
//
//	tianhelint [-json] [-why] [-par N] [-tests] [-checks nowalltime,floateq,...] [-list]
//
// The interprocedural checks (detpure, lockorder, goroleak) justify their
// findings with a call path; -why prints it under each finding (JSON output
// always carries it). -par runs the per-package passes concurrently over
// the shared read-only module state; findings are byte-identical at any
// setting. -tests additionally loads in-package _test.go files, applies the
// checks that opt in (the clock and randomness contracts) to them, and
// turns on deadcode, whose verdicts depend on what the tests set and probe.
//
// Findings can be suppressed per site with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line directly above it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tianhe/internal/analyzers"
	"tianhe/internal/sweep"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

type jsonFinding struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Check   string   `json:"check"`
	Message string   `json:"message"`
	Why     []string `json:"why,omitempty"`
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("tianhelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	why := fs.Bool("why", false, "print the justifying call path under each interprocedural finding")
	par := fs.Int("par", 1, "package-level analysis parallelism (findings are identical at any setting)")
	tests := fs.Bool("tests", false, "also load in-package _test.go files: the clock and randomness checks apply inside them, and deadcode (which judges the surface against its tests) runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	checks := analyzers.All()
	if *checksFlag != "" {
		checks = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			a := analyzers.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "tianhelint: unknown check %q (try -list)\n", name)
				return 2
			}
			checks = append(checks, a)
		}
	}

	root, mod, err := load(*tests)
	if err != nil {
		fmt.Fprintf(stderr, "tianhelint: %v\n", err)
		return 2
	}
	return report(stdout, stderr, root, mod, checks, *par, *jsonOut, *why)
}

// load parses and type-checks the module above the working directory and
// builds the shared analysis state (call graph, facts, contracts, lock
// cycles, reachable surface). It is read-only afterwards.
func load(tests bool) (root string, mod *analyzers.Module, err error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	if root, err = analyzers.FindModuleRoot(cwd); err != nil {
		return "", nil, err
	}
	loader, err := analyzers.NewLoader(root)
	if err != nil {
		return "", nil, err
	}
	loader.IncludeTests = tests
	pkgs, err := loader.LoadAll()
	if err != nil {
		return "", nil, err
	}
	return root, analyzers.BuildModule(loader.Fset(), pkgs, &analyzers.ModuleOptions{IncludeTests: tests}), nil
}

// report fans the per-package passes out over the deterministic sweep
// runner, so -par N output matches -par 1 exactly, prints the findings, and
// returns the exit code.
func report(stdout, stderr io.Writer, root string, mod *analyzers.Module, checks []*analyzers.Analyzer, par int, jsonOut, why bool) int {
	perPkg := sweep.Map(context.Background(), par, mod.Pkgs, func(i int, pkg *analyzers.Package) []analyzers.Finding {
		return mod.RunPackage(pkg, checks)
	})
	var findings []analyzers.Finding
	for _, pf := range perPkg {
		findings = append(findings, pf...)
	}
	analyzers.SortFindings(findings)

	rel := func(path string) string {
		if r, err := filepath.Rel(root, path); err == nil {
			return filepath.ToSlash(r)
		}
		return path
	}
	relHops := func(hops []string) []string {
		out := make([]string, len(hops))
		for i, hop := range hops {
			out[i] = strings.ReplaceAll(hop, root+string(filepath.Separator), "")
		}
		return out
	}
	if jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: rel(f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column,
				Check: f.Check, Message: f.Message, Why: relHops(f.Why),
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "tianhelint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n",
				rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Message, f.Check)
			if why {
				for _, hop := range relHops(f.Why) {
					fmt.Fprintf(stdout, "\twhy: %s\n", hop)
				}
			}
		}
	}
	if len(findings) > 0 {
		if !jsonOut {
			fmt.Fprintf(stderr, "tianhelint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
