package analyzers

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	// Path is the import path ("tianhe/internal/sim").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages with no external
// dependencies: imports inside the module resolve by directory layout,
// standard-library imports go through the stdlib source importer.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// IncludeTests also parses and type-checks in-package _test.go files
	// (tianhelint -tests), so test helpers face the same clock/rand
	// contract as shipped code. External test packages (package foo_test)
	// are still skipped: they are a second package in the same directory
	// and never leak into the shipped build. Set before the first load.
	IncludeTests bool

	fset *token.FileSet
	std  *sharedImporter
	pkgs map[string]*Package // by import path; nil marks in-progress
	aux  []auxModule         // extra import-path prefixes (fixture modules)
}

// auxModule maps an import-path prefix outside the main module onto a
// directory tree: imports of prefix or prefix/<rel> resolve to dir/<rel>.
// It is how the fixture harness gives the multi-package fixtures under
// testdata/src stable import paths without a second go.mod.
type auxModule struct {
	prefix string
	dir    string
}

// NewLoader builds a loader for the module rooted at root, reading the
// module path from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	stdlib.once.Do(func() {
		stdlib.fset = token.NewFileSet()
		stdlib.imp = importer.ForCompiler(stdlib.fset, "source", nil).(types.ImporterFrom)
	})
	return &Loader{
		Root:   abs,
		Module: mod,
		fset:   stdlib.fset,
		std:    &stdlib,
		pkgs:   make(map[string]*Package),
	}, nil
}

// stdlib is the process-wide standard-library importer. Type-checking the
// standard library from source is most of a load and does not depend on
// the module being loaded, so every Loader shares one importer — and with
// it one FileSet, which positions must resolve against.
var stdlib sharedImporter

// sharedImporter serializes the source importer, whose package cache is
// not safe for concurrent loaders.
type sharedImporter struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.ImporterFrom
}

func (s *sharedImporter) importFrom(path, dir string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imp.ImportFrom(path, dir, 0)
}

// FindModuleRoot walks up from dir to the nearest directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analyzers: no go.mod above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyzers: no module directive in %s", gomod)
}

// Fset returns the shared file set all loaded packages use.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// the module tree, auxiliary-module paths from their registered roots,
// everything else from the standard library.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	for _, m := range l.aux {
		rel, ok := pathRel(m.prefix, path)
		if !ok {
			continue
		}
		pkg, err := l.LoadDir(filepath.Join(m.dir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.importFrom(path, dir)
}

// moduleRel returns the module-root-relative slash path of an import path
// inside the module ("" for the root package itself).
func (l *Loader) moduleRel(path string) (string, bool) {
	return pathRel(l.Module, path)
}

// pathRel returns path relative to the import-path prefix, when under it.
func pathRel(prefix, path string) (string, bool) {
	if path == prefix {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
		return rest, true
	}
	return "", false
}

// LoadDir parses and type-checks the non-test sources of dir as importPath.
// Results are cached per import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analyzers: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // in progress

	files, err := l.parseDir(dir)
	if err != nil {
		delete(l.pkgs, importPath)
		return nil, err
	}
	if len(files) == 0 {
		delete(l.pkgs, importPath)
		return nil, fmt.Errorf("analyzers: no buildable Go sources in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		delete(l.pkgs, importPath)
		return nil, fmt.Errorf("analyzers: type-checking %s: %v", importPath, typeErrs[0])
	}

	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseDir parses every buildable .go file in dir: the non-test sources
// always, plus — when IncludeTests is set — the in-package _test.go files.
// External test packages (package name ending in _test) are dropped after
// parsing: they form a second package in the directory and stay outside
// the lint surface.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			(!l.IncludeTests && strings.HasSuffix(name, "_test.go")) ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") && strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		if !buildableFile(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildableFile evaluates a file's //go:build constraint (if any) against
// the default build the lint analyzes: current GOOS/GOARCH, no extra tags.
// Without this, tag-disjoint pairs like race_on_test.go/race_off_test.go
// would collide when -tests loads a directory.
func buildableFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
			})
		}
	}
	return true
}

// LoadAll loads every package in the module tree, skipping testdata
// fixtures and hidden directories. Packages come back sorted by path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			// A directory's files straddle its subdirectories in walk
			// order (serve/job.go, serve/loadgen/, serve/server.go).
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
