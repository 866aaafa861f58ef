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
	const root = "../.."
	hostDependent := map[string]bool{"Log": true, "Log2": true, "Exp": true, "Cos": true, "Sin": true, "Pow": true}
	allowed := map[string]string{
		"internal/telemetry/buckets.go": "histogram bucket bounds only grade reported latencies; no virtual time reads them",
	}
	fset := token.NewFileSet()
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
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
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
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed %d files: the check is looking at the wrong directory", files)
	}
}
