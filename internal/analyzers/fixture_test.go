package analyzers

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads testdata/src/<fixture> as one package, runs the
// analyzer over it (including lint:ignore suppression, so fixtures can
// exercise directives), and diffs the findings against `// want "regexp"`
// expectation comments — the x/tools analysistest contract, minus the
// dependency. A want comment expects one finding on its own line per
// quoted regexp; findings with no matching want, and wants with no
// matching finding, fail the test.
func RunFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join(root, "internal", "analyzers", "testdata", "src", fixture)
	pkg, err := l.LoadDir(dir, "tianhelint.test/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}

	findings := RunModule(BuildModule(l.Fset(), []*Package{pkg}, nil), []*Analyzer{a})
	diffWants(t, l.Fset(), []*Package{pkg}, findings)
}

// RunModuleFixture loads every package under testdata/src/<fixture> —
// including nested directories importing each other as
// "tianhelint.test/<fixture>/<sub>" — builds the shared interprocedural
// state with the given options (nil for the shipped defaults; IncludeTests
// also loads the fixture's _test.go files), runs the checks over every
// fixture package, and diffs the findings against the fixtures' `// want`
// comments. This is how the transitive-taint, lock-cycle, and dead-code
// fixtures exercise cross-package chains.
func RunModuleFixture(t *testing.T, checks []*Analyzer, fixture string, opt *ModuleOptions) {
	t.Helper()
	l, pkgs := loadFixtureTree(t, fixture, opt != nil && opt.IncludeTests)
	findings := RunModule(BuildModule(l.Fset(), pkgs, opt), checks)
	diffWants(t, l.Fset(), pkgs, findings)
}

// FixtureModule is the import-path prefix fixture packages load under.
const FixtureModule = "tianhelint.test"

// loadFixtureTree loads testdata/src/<fixture> and every package directory
// below it, in sorted order.
func loadFixtureTree(t *testing.T, fixture string, tests bool) (*Loader, []*Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	l.IncludeTests = tests
	dir := filepath.Join(root, "internal", "analyzers", "testdata", "src", fixture)
	l.aux = append(l.aux, auxModule{FixtureModule + "/" + fixture, dir})

	var dirs []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking fixture %s: %v", fixture, err)
	}
	sort.Strings(dirs)
	dirs = slices.Compact(dirs) // one entry per file so far
	var pkgs []*Package
	for _, pd := range dirs {
		rel, err := filepath.Rel(dir, pd)
		if err != nil {
			t.Fatal(err)
		}
		path := FixtureModule + "/" + fixture
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(pd, path)
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs
}

// diffWants matches findings against the fixtures' want comments: every
// finding needs a matching want on its line, every want needs a finding.
func diffWants(t *testing.T, fset *token.FileSet, pkgs []*Package, findings []Finding) {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range pkgs {
		collectWants(t, fset, pkg, wants)
	}
	for _, f := range findings {
		key := wantKey{f.Pos.Filename, f.Pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(f.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s [%s]", posString(f.Pos), f.Message, f.Check)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			if w != nil {
				t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, w)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants extracts `// want "..." "..."` expectations from the
// fixture's comments into out, keyed by (file, line).
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package, out map[wantKey][]*regexp.Regexp) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, lit := range wantArgRE.FindAllString(c.Text[idx+len("// want "):], -1) {
					s, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", posString(pos), lit, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posString(pos), s, err)
					}
					out[key] = append(out[key], re)
				}
			}
		}
	}
}
