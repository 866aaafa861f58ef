package hpl

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

// TestOneLUCodeletSet checks that this package owns the LU task vocabulary:
// no other package's non-test Go writes a taskgraph.Codelet literal named
// lu.* or a taskgraph.RateSeed for one. A second copy prices the same task
// class twice, and the copies drift — the graph stepper once priced core 0
// as sharing its L2 with a busy comm core while the whole graph priced it
// idle. Every scheduler of LU tasks takes NewLUCodelets and GraphRateSeeds.
func TestOneLUCodeletSet(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		for _, lit := range luLiterals(f) {
			t.Errorf("%s writes %s — take it from hpl", rel, lit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("parsed no Go files: the check is looking at the wrong directory")
	}
	// The detector must see this package's own set, or it sees nothing.
	f, err := parser.ParseFile(token.NewFileSet(), "graph.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if own := luLiterals(f); len(own) != 9 {
		t.Errorf("graph.go: found %d LU literals (%v), want its 4 codelets and 5 seeds", len(own), own)
	}
}

// luLiterals returns a description of every taskgraph.Codelet literal named
// lu.* and every taskgraph.RateSeed literal for one in f, the elements of a
// slice literal that elide their type included.
func luLiterals(f *ast.File) []string {
	// taskgraphType names the taskgraph type that e spells, through one
	// pointer, or "".
	taskgraphType := func(e ast.Expr) string {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "taskgraph" {
			return sel.Sel.Name
		}
		return ""
	}
	keyField := map[string]string{"Codelet": "Name", "RateSeed": "Codelet"}
	var found []string
	check := func(typ string, lit *ast.CompositeLit) {
		field, ok := keyField[typ]
		if !ok {
			return
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			val, isLit := kv.Value.(*ast.BasicLit)
			if !ok || key.Name != field || !isLit || val.Kind != token.STRING {
				continue
			}
			if name, err := strconv.Unquote(val.Value); err == nil && strings.HasPrefix(name, "lu.") {
				found = append(found, "a taskgraph."+typ+" for "+name)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || lit.Type == nil {
			return true
		}
		if typ := taskgraphType(lit.Type); typ != "" {
			check(typ, lit)
			return true
		}
		arr, ok := lit.Type.(*ast.ArrayType)
		if !ok {
			return true
		}
		if typ := taskgraphType(arr.Elt); typ != "" {
			for _, e := range lit.Elts {
				if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
					check(typ, inner)
				}
			}
		}
		return true
	})
	return found
}
