package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetPure is the contract-driven purity check that replaced the
// per-package abftpure/servepure/sweeppure analyzers. It enforces three
// things, all interprocedurally over the module call graph:
//
//  1. Every package whose contract says Pure (by default: the whole module
//     outside cmd/) must be *transitively* free of wall-clock, ambient-rand,
//     and host-environment sources — a pure package calling an impure
//     helper two hops away is a finding, with the call path attached.
//  2. Packages whose contract adds NoGlobalWrites must not write
//     package-level variables anywhere (state lives in receivers or on the
//     stack so concurrent instances cannot interfere).
//  3. Callbacks handed to the sweep executors (sweep.Map/MapTel/For)
//     must not write package-level variables — directly or through
//     any function they call — because sweep points run concurrently and
//     shared writes break the byte-identical serial/parallel contract.
//
// Declaring a new package's contract is one line in DefaultContracts.
var DetPure = &Analyzer{
	Name: "detpure",
	Doc: "enforce per-package determinism contracts transitively: " +
		"deterministic-core packages must not reach time.Now/math/rand/os.Getenv " +
		"through any call chain, contract packages must not write package-level " +
		"state, and sweep callbacks must not write package-level state even " +
		"through helpers (tianhelint -why prints the justifying call path)",
	Run: runDetPure,
}

const sweepPkgPath = "tianhe/internal/sweep"

// sweepExecutors are the sweep entry points that run their callback
// argument concurrently.
var sweepExecutors = map[string]bool{
	"Map":    true,
	"MapTel": true,
	"For":    true,
}

// taintNoun describes each taint kind in findings.
var taintNoun = map[string]string{
	taintClock: "wall clock",
	taintRand:  "ambient randomness",
	taintEnv:   "host environment",
}

func runDetPure(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	c := pass.Mod.Contracts.Lookup(pass.Pkg.Path())
	if c.enforced() {
		runContract(pass, c)
	}
	runSweepCallbacks(pass)
}

// runContract reports taint and global-write violations of one package's
// contract. Test-file functions are exempt: the contract protects the
// shipped deterministic core, and test sources are covered by the direct
// syntactic checks under -tests.
func runContract(pass *Pass, c Contract) {
	for _, node := range pass.Mod.pkgNodes(pass.Pkg.Path()) {
		if node.testFile {
			continue
		}
		f := pass.Mod.Facts.FuncFacts(node.Pkg.Path, node.Name)
		if f == nil {
			continue
		}
		if c.Pure {
			for _, kind := range taintKinds {
				st, tainted := f.Taint[kind]
				if !tainted {
					continue
				}
				why := whyPath(pass.Mod.Facts, pass.Mod.graph, node, func(ff *FuncFacts) (Step, bool) {
					s, ok := ff.Taint[kind]
					return s, ok
				})
				if st.Next == "" {
					pass.reportAt(stepPosition(st), why,
						"%s leaks into deterministic-core package %s: %s calls %s (%s)",
						taintNoun[kind], pass.Pkg.Name(), node.Display(), st.Source, c.Why)
				} else {
					pass.reportAt(stepPosition(st), why,
						"%s leaks into deterministic-core package %s: %s reaches %s through %s (%s; run tianhelint -why for the path)",
						taintNoun[kind], pass.Pkg.Name(), node.Display(), st.Source, displayKey(pass.Mod, st.Next), c.Why)
				}
			}
		}
		if c.NoGlobalWrites {
			for _, w := range node.writes {
				pass.Reportf(w.Pos,
					"write to package-level variable %s in package %s: %s",
					w.Var, pass.Pkg.Name(), c.Why)
			}
		}
	}
}

// runSweepCallbacks checks every callback handed to a sweep executor in
// this package: direct writes in the literal body (the old sweeppure
// behavior) and, through the facts store, writes reached via any function
// the callback calls or names.
func runSweepCallbacks(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgFunc(pass.TypesInfo, call.Fun, sweepPkgPath)
			if !ok || !sweepExecutors[name] {
				return true
			}
			for _, arg := range call.Args {
				checkSweepArg(pass, name, arg)
			}
			return true
		})
	}
}

// checkSweepArg flags package-level writes reachable from one sweep
// callback argument: a function literal (checked directly plus through its
// callees) or a named function reference (checked through its summary).
func checkSweepArg(pass *Pass, fn string, arg ast.Expr) {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		checkSweepLit(pass, fn, a)
	case *ast.Ident, *ast.SelectorExpr:
		target := referencedFunc(pass, a)
		if target == nil {
			return
		}
		for _, res := range pass.Mod.graph.resolve(target) {
			reportSweepCallee(pass, fn, arg.Pos(), res.node, "callback "+res.node.Display())
		}
	}
}

// checkSweepLit checks one literal callback body: direct writes, plus the
// transitive writes of every function the body references.
func checkSweepLit(pass *Pass, fn string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if v, ok := packageLevelTarget(pass.TypesInfo, lhs); ok {
					pass.Reportf(lhs.Pos(),
						"sweep.%s callback writes package-level variable %s: points may run "+
							"concurrently; keep state in locals or per-shard slots and reduce "+
							"after the sweep", fn, v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v, ok := packageLevelTarget(pass.TypesInfo, st.X); ok {
				pass.Reportf(st.Pos(),
					"sweep.%s callback writes package-level variable %s: points may run "+
						"concurrently; keep state in locals or per-shard slots and reduce "+
						"after the sweep", fn, v.Name())
			}
		case *ast.Ident:
			if target, ok := pass.TypesInfo.Uses[st].(*types.Func); ok {
				for _, res := range pass.Mod.graph.resolve(target) {
					reportSweepCallee(pass, fn, st.Pos(), res.node, "callback calls "+res.node.Display())
				}
			}
		}
		return true
	})
}

// reportSweepCallee reports the transitive package-level writes of one
// function a sweep callback runs.
func reportSweepCallee(pass *Pass, fn string, pos token.Pos, node *FuncNode, how string) {
	f := pass.Mod.Facts.FuncFacts(node.Pkg.Path, node.Name)
	if f == nil {
		return
	}
	for _, v := range sortedClassNames(f.Writes) {
		why := whyPath(pass.Mod.Facts, pass.Mod.graph, node, func(ff *FuncFacts) (Step, bool) {
			s, ok := ff.Writes[v]
			return s, ok
		})
		pass.ReportWhy(pos, why,
			"sweep.%s %s, which writes package-level variable %s: points may run "+
				"concurrently; keep state in locals or per-shard slots and reduce "+
				"after the sweep", fn, how, v)
	}
}

// referencedFunc resolves an expression naming a function (bare ident,
// pkg.Func, or method value) to its object.
func referencedFunc(pass *Pass, expr ast.Expr) *types.Func {
	switch e := expr.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stepPosition converts a fact step's site to a finding position.
func stepPosition(st Step) token.Position {
	return token.Position{Filename: st.File, Line: st.Line, Column: st.Col}
}

// displayKey renders a node key as its short display name for messages.
func displayKey(m *Module, key string) string {
	if n := findNode(m.graph, key); n != nil {
		return n.Display()
	}
	return key
}
