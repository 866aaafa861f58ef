package taskgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// maxFuncLines bounds every function body in the package's non-test code.
// Scheduler.Run was once a 1,059-line function of closures over shared
// locals; the parts it was split into stay legible only if none of them
// regrows.
const maxFuncLines = 150

func TestNoGiantFunctions(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				funcs++
				lines := fset.Position(fn.Body.Rbrace).Line - fset.Position(fn.Body.Lbrace).Line + 1
				if lines > maxFuncLines {
					t.Errorf("%s: %s is %d lines long, over the %d-line limit — split it",
						fset.Position(fn.Pos()), fn.Name.Name, lines, maxFuncLines)
				}
			}
		}
	}
	if funcs == 0 {
		t.Fatal("parsed no functions: the check is looking at the wrong directory")
	}
}

// TestHotPathHasNoStringKeyedMaps keeps handle and task names off the
// per-task path: residency once found every victim by scanning a
// map[string]*residentEntry, hashing a name per entry, and that scan was the
// largest single cost of scheduling a tile graph. Handles and tasks are
// identified by their dense ids; the one map keyed by a string in these
// files is Validate's duplicate-task-name set, built once per Run. (The rate
// database in rates.go is keyed by codelet, a handful per graph.)
func TestHotPathHasNoStringKeyedMaps(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"residency.go", "executor.go", "devplan.go", "placement.go", "graph.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		allowed := 0
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				mt, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				if key, ok := mt.Key.(*ast.Ident); !ok || key.Name != "string" {
					return true
				}
				if name == "graph.go" && fn != nil && fn.Name.Name == "Validate" && allowed == 0 {
					allowed++
					return true
				}
				t.Errorf("%s: a map keyed by string on the task-graph hot path — index by Handle.id or Task.id instead",
					fset.Position(mt.Pos()))
				return true
			})
		}
	}
}
