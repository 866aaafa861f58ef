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
// SolveDistributed2D (every P x Q grid, the 1-D layout included) and
// SolveElastic (ownership table, survives deaths). A third was once forked
// off for the 1 x Q case; the next layout is a configuration of one of these
// two, not another loop.
const maxSolverLoops = 2

func TestTwoSolverLoops(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var loops []string
	worlds := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				made, ran := worldsMadeAndRun(fn.Body)
				worlds += made
				if ran {
					loops = append(loops, fn.Name.Name)
				}
			}
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
