package gpu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
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
	fset := token.NewFileSet()
	var decays, classifies, tallies []string
	eachModuleFile(t, fset, func(rel string, file *ast.File) {
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
	})
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

// eachModuleFile parses every non-test Go file of the module outside
// testdata and hands it to fn with its slash-separated module-relative path.
func eachModuleFile(t *testing.T, fset *token.FileSet, fn func(rel string, file *ast.File)) {
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
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		fn(filepath.ToSlash(rel), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed %d files: the check is looking at the wrong directory", files)
	}
}

// TestOneResidencyManager keeps device memory under one manager. The
// simulated card's memory was once managed twice: the task graph's LRU list
// keyed by handle id, and the pipeline's tile cache, whose evictFor scanned a
// slice of tick-stamped slots for the smallest tick. Both now stage through
// this package's Residency, and this test fails when a second manager appears
// in any non-test file of the module:
//
//   - outside internal/gpu, no function is named for evicting, victims or an
//     LRU, and no struct holds an LRU field or prev/next links;
//   - inside it, exactly one struct threads resident copies on such a list.
func TestOneResidencyManager(t *testing.T) {
	fset := token.NewFileSet()
	victimFunc := regexp.MustCompile(`(?i)evict|victim|lru`)
	var lists []string
	eachModuleFile(t, fset, func(rel string, file *ast.File) {
		inGPU := strings.HasPrefix(rel, "internal/gpu/")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if !inGPU && victimFunc.MatchString(n.Name.Name) {
					t.Errorf("%s: %s picks device-memory victims outside internal/gpu — stage through gpu.Residency",
						fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.StructType:
				links := 0
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						_, ptr := f.Type.(*ast.StarExpr)
						switch {
						case !inGPU && strings.Contains(strings.ToLower(id.Name), "lru"):
							t.Errorf("%s: field %s keeps an LRU clock outside internal/gpu — stage through gpu.Residency",
								fset.Position(id.Pos()), id.Name)
						case ptr && (id.Name == "prev" || id.Name == "next"):
							links++
						}
					}
				}
				if links == 2 {
					lists = append(lists, fset.Position(n.Pos()).String())
				}
			}
			return true
		})
	})
	if len(lists) != 1 || !strings.Contains(filepath.ToSlash(lists[0]), "internal/gpu/residency.go") {
		t.Errorf("a struct with prev/next links must exist exactly once, in internal/gpu/residency.go; found at %v", lists)
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
