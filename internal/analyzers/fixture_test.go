package analyzers

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads testdata/src/<fixture> (one package, for most
// fixtures), runs the analyzer over it (including lint:ignore suppression,
// so fixtures can exercise directives), and diffs the findings against
// `// want "regexp"` expectation comments — the x/tools analysistest
// contract, minus the dependency. A want comment expects one finding on its
// own line per quoted regexp; findings with no matching want, and wants
// with no matching finding, fail the test.
func RunFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	RunModuleFixture(t, []*Analyzer{a}, fixture, nil)
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

// fixtureLoaders holds one loader per IncludeTests setting. Fixture trees
// are roots with distinct import-path prefixes and load read-only, so the
// fixtures share a loader, and with it its go list of the standard
// library's export data.
var fixtureLoaders = map[bool]*Loader{}

// loadFixtureTree registers testdata/src/<fixture> as a root under
// FixtureModule and loads every package in it, sorted by path.
func loadFixtureTree(t *testing.T, fixture string, tests bool) (*Loader, []*Package) {
	t.Helper()
	l := fixtureLoaders[tests]
	if l == nil {
		dir, err := FindModuleRoot(".")
		if err != nil {
			t.Fatalf("module root: %v", err)
		}
		if l, err = NewLoader(dir); err != nil {
			t.Fatalf("loader: %v", err)
		}
		l.IncludeTests = tests
		fixtureLoaders[tests] = l
	}
	r := root{FixtureModule + "/" + fixture, filepath.Join(l.Root, "internal", "analyzers", "testdata", "src", fixture)}
	if !slices.Contains(l.roots, r) {
		l.roots = append(l.roots, r)
	}
	pkgs, err := l.loadTree(r)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
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
