package gpu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneDeviceFaultPath keeps the device-fault path single-sourced. The
// loss admission state machine, the re-warm trust curve and the ABFT verdict
// were once written out per runtime (hybrid, taskgraph, serve, pipeline,
// linpacksim), each copy "mirroring" another; they now exist once — in this
// package's LossGate, in adaptive.Trust and in abft.Tally — and this test
// fails when a second copy appears in any non-test file of the module:
//
//   - only this package re-initializes a context or asks whether it is dead;
//   - the decay 0.5^(1/halfLife), sim.Exp(1/halfLife*sim.Log(0.5)), is
//     computed in one place;
//   - abft.Classify has one caller;
//   - no struct but abft.Tally declares the SDC counters.
func TestOneDeviceFaultPath(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	var decays, classifies, tallies []string
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
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		inGPU := strings.HasPrefix(rel, "internal/gpu/")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name, qual := calleeName(n)
				switch {
				case !inGPU && (name == "Reinit" || name == "ContextDead"):
					t.Errorf("%s: %s called outside internal/gpu — pass the device's LossGate (or read LossAt) instead",
						fset.Position(n.Pos()), name)
				case qual == "sim" && name == "Exp" && isHalfLifeDecay(n):
					decays = append(decays, fset.Position(n.Pos()).String())
				case name == "Classify" && (qual == "abft" || (qual == "" && file.Name.Name == "abft")):
					classifies = append(classifies, fset.Position(n.Pos()).String())
				}
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						if id.Name == "SDCDetected" {
							tallies = append(tallies, fset.Position(id.Pos()).String())
						}
					}
				}
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
	for _, c := range []struct {
		what, home string
		sites      []string
	}{
		{"the re-warm decay sim.Exp(1/halfLife*sim.Log(0.5))", "internal/adaptive/trust.go", decays},
		{"a call of abft.Classify", "internal/abft/tally.go", classifies},
		{"a struct declaring SDCDetected", "internal/abft/tally.go", tallies},
	} {
		if len(c.sites) != 1 || !strings.Contains(filepath.ToSlash(c.sites[0]), c.home) {
			t.Errorf("%s must exist exactly once, in %s; found at %v", c.what, c.home, c.sites)
		}
	}
}

// calleeName returns the called function or method name and, for a
// package- or value-qualified call, the qualifier identifier.
func calleeName(call *ast.CallExpr) (name, qual string) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name, ""
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return fn.Sel.Name, x.Name
		}
		return fn.Sel.Name, "?"
	}
	return "", ""
}

// isHalfLifeDecay matches sim.Exp(1/x * sim.Log(0.5)).
func isHalfLifeDecay(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	prod, ok := call.Args[0].(*ast.BinaryExpr)
	if !ok || prod.Op != token.MUL {
		return false
	}
	inv, ok := prod.X.(*ast.BinaryExpr)
	if !ok || inv.Op != token.QUO {
		return false
	}
	if one, ok := inv.X.(*ast.BasicLit); !ok || one.Value != "1" {
		return false
	}
	log, ok := prod.Y.(*ast.CallExpr)
	if !ok || len(log.Args) != 1 {
		return false
	}
	if name, qual := calleeName(log); name != "Log" || qual != "sim" {
		return false
	}
	half, ok := log.Args[0].(*ast.BasicLit)
	return ok && half.Value == "0.5"
}
