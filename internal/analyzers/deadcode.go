package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode keeps the internal/ surface from regrowing. Packages under
// internal/ have no consumers outside the module, so an exported name no
// non-test file mentions is dead weight, and a field of a *Config/*Options
// struct that no file ever sets is a constant wearing an option's clothes.
//
// Four things a non-test file never names still stay, because each is
// reached another way: a method that satisfies an interface; a member of an
// enumeration whose type is declared beside it; whatever another package's
// test calls (reference implementations, decoders, fixtures — shared test
// support cannot live in a _test.go file); and an accessor a test reads. A
// field only a test sets stays too: it is the test's way into a recovery or
// validation path.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc: "flag exported identifiers and methods under internal/ that no " +
		"non-test file references (interface methods, enumeration members, " +
		"other packages' test support and accessors a test reads excepted), " +
		"and exported *Config/*Options fields that no file sets; delete them, " +
		"or make the option a constant (needs -tests)",
	Run: runDeadCode,
}

// surface is what the module reaches: every object a non-test file names,
// every object a test file names, every struct field any file sets, and
// every interface a method could be called through.
type surface struct {
	used   map[types.Object]bool
	probed map[types.Object]bool
	set    map[types.Object]bool
	ifaces []*types.Interface
}

func buildSurface(fset *token.FileSet, pkgs []*Package) *surface {
	s := &surface{
		used:   make(map[types.Object]bool),
		probed: make(map[types.Object]bool),
		set:    make(map[types.Object]bool),
		ifaces: []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	// The module's own interfaces are collected where its non-test files
	// declare them (scan); the scopes walked here are the libraries'.
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		seen[pkg.Types] = true
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			s.addInterfaces(imp, seen)
		}
		for _, f := range pkg.Files {
			named, test := s.used, isTestFile(fset, f.Pos())
			if test {
				named = s.probed
			}
			for _, decl := range f.Decls {
				s.scan(pkg, decl, named, test)
			}
		}
	}
	return s
}

// addInterfaces collects the named interfaces of an imported package and
// of everything it imports in turn.
func (s *surface) addInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.ifaces = append(s.ifaces, iface)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		s.addInterfaces(imp, seen)
	}
}

// scan records the objects one top-level declaration names, into named,
// and the fields it sets. Any literal sets its fields, and so does any
// assignment except cfg.F = v on a plain variable in the non-test code of
// the package declaring F: that is withDefaults filling in a zero, not a
// caller choosing a value.
func (s *surface) scan(pkg *Package, decl ast.Decl, named map[types.Object]bool, test bool) {
	info := pkg.Info
	assign := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		_, plain := sel.X.(*ast.Ident)
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && (test || !plain || v.Pkg() != pkg.Types) {
			s.set[v.Origin()] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Uses[n]
			switch o := obj.(type) {
			case nil:
				return true
			case *types.Var:
				obj = o.Origin()
			case *types.Func:
				obj = o.Origin()
			}
			named[obj] = true
			// What another package's test calls cannot move into a
			// _test.go file: it is shared test support and stays.
			if test && obj.Pkg() != pkg.Types {
				s.used[obj] = true
			}
		case *ast.InterfaceType:
			if iface, ok := info.TypeOf(n).(*types.Interface); ok && !test {
				s.ifaces = append(s.ifaces, iface)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						s.set[v.Origin()] = true
					}
				} else if i < st.NumFields() {
					s.set[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				assign(lhs)
			}
		case *ast.IncDecStmt:
			assign(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				assign(n.X)
			}
		}
		return true
	})
}

// viaInterface reports whether some interface in reach has a method of
// fn's name that fn's receiver type implements.
func (s *surface) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	// errors.Is/As/Unwrap find these through unnamed interfaces inside
	// function bodies, which standard-library export data does not carry.
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		if types.Implements(recv, s.ifaces[0]) || types.Implements(ptr, s.ifaces[0]) {
			return true
		}
	}
	for _, iface := range s.ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// accessor reports whether d is a parameterless method that only reads:
// every statement before its final return is a mutex Lock/Unlock call or
// an early-return guard. That is a window on unexported state, which is
// what a test probes other behaviour with.
func accessor(info *types.Info, d *ast.FuncDecl) bool {
	if d.Type.Params.NumFields() != 0 || d.Type.Results.NumFields() != 1 || d.Body == nil {
		return false
	}
	isReturn := func(st ast.Stmt) bool { _, ok := st.(*ast.ReturnStmt); return ok }
	body := d.Body.List
	for ; len(body) > 1; body = body[1:] {
		var call ast.Expr
		switch st := body[0].(type) {
		case *ast.IfStmt:
			if st.Init == nil && st.Else == nil && len(st.Body.List) == 1 && isReturn(st.Body.List[0]) {
				continue
			}
		case *ast.ExprStmt:
			call = st.X
		case *ast.DeferStmt:
			call = st.Call
		}
		c, _ := call.(*ast.CallExpr)
		if c == nil {
			return false
		}
		if sel, _ := c.Fun.(*ast.SelectorExpr); sel == nil || !isMutexMethod(info.TypeOf(sel.X), sel.Sel.Name) {
			return false
		}
	}
	return isReturn(body[0])
}

func runDeadCode(pass *Pass) {
	// The verdicts depend on what the tests set and probe, so the check
	// runs only when they are loaded (-tests, as make lint does).
	if pass.Mod == nil || !pass.Mod.IncludeTests || !strings.Contains(pass.Pkg.Path()+"/", "/internal/") {
		return
	}
	s := pass.Mod.surface
	dead := func(id *ast.Ident) bool {
		return id.IsExported() && !s.used[pass.TypesInfo.Defs[id]]
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !dead(d.Name) {
					continue
				}
				fn := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if d.Recv == nil {
					pass.Reportf(d.Name.Pos(), "exported func %s is referenced by no non-test file", d.Name.Name)
				} else if !s.viaInterface(fn) && !(s.probed[fn] && accessor(pass.TypesInfo, d)) {
					pass.Reportf(d.Name.Pos(), "exported method %s is referenced by no non-test file and satisfies no interface", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							// A constant of a type declared here is a member of
							// that enumeration and stands or falls with it.
							if n, ok := pass.TypesInfo.TypeOf(name).(*types.Named); ok && d.Tok == token.CONST && n.Obj().Pkg() == pass.Pkg {
								continue
							}
							if dead(name) {
								pass.Reportf(name.Pos(), "exported %s %s is referenced by no non-test file", d.Tok, name.Name)
							}
						}
					case *ast.TypeSpec:
						if dead(sp.Name) {
							pass.Reportf(sp.Name.Pos(), "exported type %s is referenced by no non-test file", sp.Name.Name)
						}
						deadOptions(pass, s, sp)
					}
				}
			}
		}
	}
}

// deadOptions reports the exported fields of a *Config/*Options struct
// that no file sets (its own package filling in a default aside).
func deadOptions(pass *Pass, s *surface, sp *ast.TypeSpec) {
	st, ok := sp.Type.(*ast.StructType)
	if !ok || !(strings.HasSuffix(sp.Name.Name, "Config") || strings.HasSuffix(sp.Name.Name, "Options")) {
		return
	}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.IsExported() && !s.set[pass.TypesInfo.Defs[name]] {
				pass.Reportf(name.Pos(), "option %s.%s is set by no file; make it a constant", sp.Name.Name, name.Name)
			}
		}
	}
}
