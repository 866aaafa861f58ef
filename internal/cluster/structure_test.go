package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// maxSolverLoops is how many functions may drive ranks through an mpi world:
// the 2D loop's solveGrid, which runs every P x Q grid, the 1-D layout and
// the elastic solver's 1 x Q grid with its recovery layer included. Forks
// for the 1 x Q case and for elastic recovery were folded back into it; the
// next layout is a configuration of this loop, not another one.
const maxSolverLoops = 1

// packageFuncs parses the package's non-test files and returns every
// function declaration with a body.
func packageFuncs(t *testing.T) []*ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fns []*ast.FuncDecl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					fns = append(fns, fn)
				}
			}
		}
	}
	return fns
}

func TestOneSolverLoop(t *testing.T) {
	var loops []string
	worlds := 0
	for _, fn := range packageFuncs(t) {
		made, ran := worldsMadeAndRun(fn.Body)
		worlds += made
		if ran {
			loops = append(loops, fn.Name.Name)
		}
	}
	// A world run outside the function that made it would slip past the
	// per-function scan, so every mpi.NewWorld must pair with a Run here.
	if worlds != len(loops) {
		t.Errorf("%d mpi.NewWorld calls but %d functions run one (%v): run each world where it is made", worlds, len(loops), loops)
	}
	if len(loops) > maxSolverLoops {
		t.Errorf("%d functions run an mpi world (%v), over the limit of %d — make the new layout a case of an existing solver", len(loops), loops, maxSolverLoops)
	}
	if len(loops) == 0 {
		t.Fatal("found no solver loop: the check is looking at the wrong directory")
	}
}

// worldsMadeAndRun counts the mpi.NewWorld calls in a function body and
// reports whether the body calls Run on one of the worlds it made.
func worldsMadeAndRun(body *ast.BlockStmt) (made int, ran bool) {
	isNewWorld := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "mpi" && sel.Sel.Name == "NewWorld"
	}
	names := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, rhs := range n.Rhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && isNewWorld(rhs) {
					names[id.Name] = true
				}
			}
		case *ast.CallExpr:
			if isNewWorld(n) {
				made++
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Run" {
				break
			}
			if id, ok := sel.X.(*ast.Ident); (ok && names[id.Name]) || isNewWorld(sel.X) {
				ran = true
			}
		}
		return true
	})
	return made, ran
}

// TestOneScaleFork checks that the scale model is element-major: the
// package forks sweep.For once, in SimulateScale and outside every loop, so
// each shard walks its elements through every iteration. A fork per
// iteration pays a fork and join per HPL step, 1,842 of them at 80 cabinets.
func TestOneScaleFork(t *testing.T) {
	var forks []string
	for _, fn := range packageFuncs(t) {
		for _, inLoop := range sweepForCalls(fn.Body) {
			where := fn.Name.Name
			if inLoop {
				where += " (in a loop)"
			}
			forks = append(forks, where)
		}
	}
	if len(forks) != 1 || forks[0] != "SimulateScale" {
		t.Errorf("sweep.For calls: %v, want exactly one, in SimulateScale outside every loop", forks)
	}
}

// sweepForCalls reports, for each sweep.For call in a function body,
// whether a for or range statement encloses it.
func sweepForCalls(body *ast.BlockStmt) []bool {
	var loops []ast.Node
	var calls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sweep" && sel.Sel.Name == "For" {
				calls = append(calls, n)
			}
		}
		return true
	})
	inLoop := make([]bool, len(calls))
	for i, c := range calls {
		for _, l := range loops {
			if l.Pos() <= c.Pos() && c.End() <= l.End() {
				inLoop[i] = true
			}
		}
	}
	return inLoop
}

// TestSolversGenerateWhatTheyOwn: no solver generates the whole system. Each
// rank fills its own blocks with hpl.FillMatrix and the residual check
// regenerates A (hpl.GeneratedResidual), so a call to hpl.Generate outside
// the tests means a full copy of A is back.
func TestSolversGenerateWhatTheyOwn(t *testing.T) {
	for _, fn := range packageFuncs(t) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Generate" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "hpl" {
					t.Errorf("%s calls hpl.Generate", fn.Name.Name)
				}
			}
			return true
		})
	}
}
