package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestHostMathOnlyInSim keeps the variate contract whole: outside this
// package no non-test file of the module calls a math function whose result
// differs between hosts (math.Exp picks a code path from CPUID, and the
// portable ones fuse differently per architecture). Virtual numbers take
// sim.Log, sim.Log2 and sim.Exp instead. The one exception formats output.
func TestHostMathOnlyInSim(t *testing.T) {
	hostDependent := map[string]bool{"Log": true, "Log2": true, "Exp": true, "Cos": true, "Sin": true, "Pow": true}
	allowed := map[string]string{
		"internal/telemetry/buckets.go": "histogram bucket bounds only grade reported latencies; no virtual time reads them",
	}
	fset := token.NewFileSet()
	walkModule(t, func(path, rel string) error {
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mathName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math" {
				mathName = "math"
				if imp.Name != nil {
					mathName = imp.Name.Name
				}
			}
		}
		if mathName == "" || strings.HasPrefix(rel, "internal/sim/") || allowed[rel] != "" {
			return nil
		}
		if file, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == mathName && hostDependent[sel.Sel.Name] {
				t.Errorf("%s: math.%s outside internal/sim — use sim.%s, which every host computes alike",
					fset.Position(sel.Pos()), sel.Sel.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
}

// walkModule calls visit with the path, and the slash-separated path from
// the module root, of every non-test Go file of the module outside testdata
// and hidden directories, and fails the test on an error or on too few files
// to be the module.
func walkModule(t *testing.T, visit func(path, rel string) error) {
	t.Helper()
	const root = "../.."
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		rel, _ := filepath.Rel(root, path)
		return visit(path, filepath.ToSlash(rel))
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("found %d files: the check is looking at the wrong directory", files)
	}
}

// TestOneUniformFill keeps one uniform fill: outside this package no
// non-test file loops over x.Float64() - 0.5. The loop is (*RNG).FillCentered,
// which runs on the 8-lane kernel where the host has it; a hand-written copy
// would quietly stay scalar.
func TestOneUniformFill(t *testing.T) {
	const copied = "package p\nfunc f(v []float64, r *R) {\n\tfor i := range v {\n\t\tv[i] = r.Float64() - 0.5\n\t}\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "copied.go", copied, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if len(centeredDrawsInLoops(file)) != 1 {
		t.Fatal("the check misses a hand-written fill loop")
	}
	walkModule(t, func(path, rel string) error {
		if strings.HasPrefix(rel, "internal/sim/") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, e := range centeredDrawsInLoops(file) {
			t.Errorf("%s: a Float64() - 0.5 loop outside internal/sim — call (*sim.RNG).FillCentered", fset.Position(e.Pos()))
		}
		return nil
	})
}

// centeredDrawsInLoops returns every x.Float64() - 0.5 in file that a for or
// range statement encloses.
func centeredDrawsInLoops(file *ast.File) []ast.Expr {
	var loops []ast.Node
	var draws []ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.BinaryExpr:
			call, ok := n.X.(*ast.CallExpr)
			if !ok || n.Op != token.SUB || len(call.Args) != 0 {
				break
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			half, isLit := n.Y.(*ast.BasicLit)
			if ok && sel.Sel.Name == "Float64" && isLit && half.Value == "0.5" {
				draws = append(draws, n)
			}
		}
		return true
	})
	var inLoops []ast.Expr
	for _, d := range draws {
		for _, l := range loops {
			if l.Pos() <= d.Pos() && d.End() <= l.End() {
				inLoops = append(inLoops, d)
				break
			}
		}
	}
	return inLoops
}
