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
