// Package analyzers implements tianhelint, the repository's custom static
// analyzer suite. The simulator's results are reproducible only because a
// handful of invariants hold everywhere: all timing flows through the
// virtual sim.Clock, all randomness comes from seeded sim.RNG streams,
// telemetry bundles tolerate nil (the disabled mode), floating-point state
// is never compared with ==, and nothing order-sensitive is ever fed from a
// Go map iteration. Each invariant is a self-contained Analyzer run by
// cmd/tianhelint over every non-test package in the module.
//
// On top of the per-package syntactic checks sits an interprocedural layer:
// a whole-module call graph (callgraph.go), a per-function fact store
// propagated to fixpoint (facts.go), and a declarative per-package contract
// table (contracts.go) driving the detpure, lockorder, and goroleak checks;
// deadcode reads the same load for what the module reaches (deadcode.go).
// The shared state is built once per run (module.go) and is read-only
// afterwards, so per-package passes run concurrently under -par with
// byte-identical findings, and every interprocedural finding carries the
// call path that justifies it (-why).
//
// The suite is stdlib-only (go/ast, go/parser, go/types, go/importer): the
// module has zero dependencies and the lint layer must not be the thing
// that changes that. The Analyzer/Pass shapes mirror
// golang.org/x/tools/go/analysis closely enough that a check could be
// ported to the real driver verbatim.
//
// Findings can be suppressed per site with a directive comment
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory; a directive without one is itself reported (check
// "lintdirective") and suppresses nothing.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the check in output and in lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the check enforces.
	Doc string
	// Run reports findings for one package through the pass.
	Run func(*Pass)
	// Tests marks checks that also apply inside _test.go files when the
	// module was loaded with them (tianhelint -tests): test helpers obey
	// the same clock/rand contract as shipped code.
	Tests bool
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Mod is the shared whole-program state (call graph, facts,
	// contracts); nil only when a check is driven outside Run/RunPackage.
	Mod *Module

	findings *[]Finding
}

// Finding is one reported violation.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
	// Why, when set, is the call path justifying an interprocedural
	// finding, one hop per line (printed by tianhelint -why).
	Why []string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Check)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportWhy records a finding at pos carrying a justifying call path.
func (p *Pass) ReportWhy(pos token.Pos, why []string, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), why, format, args...)
}

// reportAt records a finding at an already-resolved position — the
// interprocedural checks carry fact positions as token.Position.
func (p *Pass) reportAt(pos token.Position, why []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     pos,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Why:     why,
	})
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallTime,
		NoGlobalRand,
		TelemetryNil,
		FaultNil,
		FloatEq,
		MapIterOrder,
		DeadCode,
		DetPure,
		LockOrder,
		GoroLeak,
	}
}

// Lookup returns the named analyzer from the suite, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunModule runs the checks over every package of an already-built module,
// applies lint:ignore suppression, and returns the surviving findings sorted
// by position.
func RunModule(m *Module, checks []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range m.Pkgs {
		findings = append(findings, m.RunPackage(pkg, checks)...)
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by position then check name — the stable
// output order `-par 1` and `-par 8` runs both produce.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// ignoreKey addresses one (file, line) pair for suppression lookup.
type ignoreKey struct {
	file string
	line int
}

const ignorePrefix = "//lint:ignore"

// directives collects well-formed lint:ignore directives: the set of checks
// suppressed at each (file, line).
func directives(fset *token.FileSet, files []*ast.File) map[ignoreKey]map[string]bool {
	out := make(map[ignoreKey]map[string]bool)
	eachDirective(fset, files, func(pos token.Position, check, reason string) {
		if check == "" || reason == "" {
			return
		}
		k := ignoreKey{pos.Filename, pos.Line}
		if out[k] == nil {
			out[k] = make(map[string]bool)
		}
		out[k][check] = true
	})
	return out
}

// malformedDirectives reports lint:ignore comments missing a check name or
// a reason, so a typo cannot silently disable enforcement.
func malformedDirectives(fset *token.FileSet, files []*ast.File) []Finding {
	var out []Finding
	eachDirective(fset, files, func(pos token.Position, check, reason string) {
		if check != "" && reason != "" {
			return
		}
		out = append(out, Finding{
			Pos:     pos,
			Check:   "lintdirective",
			Message: "malformed lint:ignore directive: want //lint:ignore <check> <reason>",
		})
	})
	return out
}

func eachDirective(fset *token.FileSet, files []*ast.File, fn func(pos token.Position, check, reason string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				check, reason := "", ""
				if len(fields) > 0 {
					check = fields[0]
				}
				if len(fields) > 1 {
					reason = strings.Join(fields[1:], " ")
				}
				fn(fset.Position(c.Pos()), check, reason)
			}
		}
	}
}

// suppress drops findings covered by a lint:ignore directive on the same
// line or the line directly above.
func suppress(fset *token.FileSet, pkgs []*Package, findings []Finding) []Finding {
	dirs := make(map[ignoreKey]map[string]bool)
	for _, pkg := range pkgs {
		for k, v := range directives(fset, pkg.Files) {
			dirs[k] = v
		}
	}
	if len(dirs) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		same := dirs[ignoreKey{f.Pos.Filename, f.Pos.Line}]
		above := dirs[ignoreKey{f.Pos.Filename, f.Pos.Line - 1}]
		if same[f.Check] || above[f.Check] {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// skipFile reports whether the file is out of scope for this pass:
// _test.go sources are linted only when the module was loaded with tests
// (tianhelint -tests) and the analyzer opted in via Analyzer.Tests.
func (p *Pass) skipFile(f *ast.File) bool {
	if !isTestFile(p.Fset, f.Pos()) {
		return false
	}
	return p.Mod == nil || !p.Mod.IncludeTests || !p.Analyzer.Tests
}

// isTestFile reports whether pos lies in a _test.go file. The loader skips
// test files already; checks still guard on it so they behave identically
// when a harness hands them test sources directly.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// pkgFunc reports whether expr is a selector onto the named import path
// (e.g. pkgFunc(info, expr, "time") matches time.Now in any file that
// imports time under any local name), returning the selected name.
func pkgFunc(info *types.Info, expr ast.Expr, path string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != path {
		return "", false
	}
	return sel.Sel.Name, true
}
