package taskgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines bounds every function body in the non-test code under
// internal/ and cmd/. Scheduler.Run was once a 1,059-line function of
// closures over shared locals, pipeline's run 328, linpacksim's stepGraph and
// hpl's BuildLUGraph 211 and 177; the parts they were split into stay legible
// only if none of them regrows, here or anywhere else.
const maxFuncLines = 150

func TestNoGiantFunctions(t *testing.T) {
	funcs := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			funcs += checkFuncLines(t, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if funcs < 1000 {
		t.Fatalf("parsed %d functions: the check is looking at the wrong directory", funcs)
	}
}

// checkFuncLines reports every over-long function of the non-test files in
// dir and returns how many functions it looked at.
func checkFuncLines(t *testing.T, dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
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
	return funcs
}

// TestHotPathHasNoStringKeyedMaps keeps handle and task names off the
// per-task path: residency once found every victim by scanning a
// map[string]*residentEntry, hashing a name per entry, and that scan was the
// largest single cost of scheduling a tile graph. Handles and tasks are
// identified by their dense ids, and the device-memory manager in package gpu
// is keyed by them; the one map keyed by a string in these files is the
// nameSet type, Validate's duplicate-task-name set, filled once per Run. (The
// rate database in rates.go is keyed by codelet, a handful per graph.)
func TestHotPathHasNoStringKeyedMaps(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"../gpu/residency.go", "executor.go", "devplan.go", "placement.go", "graph.go", "slab.go", "scheduler.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		allowed := 0
		for _, decl := range file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && name == "graph.go" && ts.Name.Name == "nameSet" && allowed == 0 {
					allowed++
					return false
				}
				mt, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				if key, ok := mt.Key.(*ast.Ident); !ok || key.Name != "string" {
					return true
				}
				t.Errorf("%s: a map keyed by string on the task-graph hot path — index by Handle.id or Task.id instead",
					fset.Position(mt.Pos()))
				return true
			})
		}
	}
}
