package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("tianhe/internal/sim").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed sources go/build selects for the current
	// platform (plus the in-package tests under IncludeTests), sorted by
	// file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages from source, so the
// analyzers see their syntax. It leaves both build decisions to the Go
// toolchain: go/build picks each directory's files for the current
// GOOS/GOARCH (build constraints and _GOOS/_GOARCH file-name suffixes
// alike), and standard-library imports are typed from the export data the
// go command keeps in its build cache. Loading therefore needs the go
// command on PATH.
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

	fset    *token.FileSet
	std     types.ImporterFrom
	exports map[string]string   // standard-library import path -> export data file
	pkgs    map[string]*Package // by import path; nil marks in-progress
	roots   []root              // roots[0] is the module
}

// root maps an import-path prefix onto a directory tree: imports of prefix
// or prefix/<rel> resolve to dir/<rel>. The module is the first root; the
// fixture harness adds one per fixture tree under testdata/src, which gives
// multi-package fixtures stable import paths without a second go.mod.
type root struct {
	prefix string
	dir    string
}

// NewLoader builds a loader for the module rooted at dir, reading the
// module path from dir/go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:   abs,
		Module: mod,
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*Package),
		roots:  []root{{mod, abs}},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.exportData).(types.ImporterFrom)
	return l, nil
}

// exportData opens the build-cache export data of a standard-library
// package. The first call lists the standard packages the module depends on,
// then the export files of exactly those, so the module's own packages are
// never compiled only for export data the loader throws away; a package
// outside that set (one only tests or fixtures import) is listed on its own,
// with its dependencies.
func (l *Loader) exportData(path string) (io.ReadCloser, error) {
	if l.exports == nil {
		l.exports = make(map[string]string)
		std, err := l.goList("-deps", "-f", "{{if .Standard}}{{.ImportPath}}{{end}}", "./...")
		if err != nil {
			return nil, err
		}
		if paths := strings.Fields(std); len(paths) > 0 {
			if err := l.listExports(paths...); err != nil {
				return nil, err
			}
		}
	}
	if _, ok := l.exports[path]; !ok {
		if err := l.listExports("-deps", path); err != nil {
			return nil, err
		}
	}
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("analyzers: no export data for %q", path)
	}
	return os.Open(file)
}

// listExports records the export data files of the standard packages that
// go list selects with args.
func (l *Loader) listExports(args ...string) error {
	out, err := l.goList(append([]string{"-export", "-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}"}, args...)...)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(out, "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			l.exports[path] = file
		}
	}
	return nil
}

// goList runs go list -e with args in the module root. -e keeps a package of
// the module that does not compile from hiding the standard library: its
// error surfaces when the loader type-checks it.
func (l *Loader) goList(args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = l.Root
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analyzers: go list %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
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

// Fset returns the file set all loaded packages and imported
// standard-library objects share.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: paths under a root load from
// its directory tree, everything else from the standard library.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	for _, r := range l.roots {
		rel, ok := pathRel(r.prefix, path)
		if !ok {
			continue
		}
		pkg, err := l.LoadDir(filepath.Join(r.dir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
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

// LoadDir parses and type-checks the sources of dir as importPath.
// Results are cached per import path. A directory with no non-test source
// for the current platform yields a *build.NoGoError.
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

// parseDir parses the files go/build selects in dir: the package's
// sources, plus its in-package _test.go files when IncludeTests is set.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	if len(bp.GoFiles) == 0 {
		return nil, &build.NoGoError{Dir: dir}
	}
	names := bp.GoFiles
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	slices.Sort(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadAll loads every package of the module. Packages come back sorted by
// path.
func (l *Loader) LoadAll() ([]*Package, error) {
	return l.loadTree(l.roots[0])
}

// loadTree loads every package in r's directory tree, skipping testdata,
// hidden and _-prefixed directories below its top and directories with no
// package for the current platform. Packages come back sorted by path.
func (l *Loader) loadTree(r root) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(r.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != r.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(r.dir, dir)
		if err != nil {
			return err
		}
		path := r.prefix
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
