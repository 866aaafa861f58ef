package analyzers

// The call-graph layer: a whole-module over-approximation of "who can call
// whom" built once per lint run and shared by every interprocedural check
// (detpure, lockorder, goroleak). Static calls resolve through go/types;
// dynamic calls through an interface method are over-approximated by the
// method sets of every named type in the loaded packages — if any module
// type implements the interface, its method is a possible callee. Bare
// references to a function (passing it as a callback, deferring it,
// spawning it) count as edges too: anything that *may* run a function
// propagates its summary.
//
// One AST walk per function also collects the "atoms" the analyzers
// summarize — wall-clock/rand/env source references, writes to
// package-level variables, goroutine termination signals, and mutex
// acquire/release events in source order — so building the graph is a
// single O(AST) pass over the module.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncNode is one function in the module call graph: a declared function or
// method, or the synthetic per-package init node holding package-level
// variable initializer expressions. Function literals are attributed to
// their enclosing declaration.
type FuncNode struct {
	// Obj is the declared function object; nil for a package init node.
	Obj *types.Func
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Name is the canonical key within the package: "F", "(T).M", "(*T).M",
	// or "init" for the synthetic initializer node.
	Name string
	// Pos is the declaration position (used for deterministic ordering).
	Pos token.Pos

	// calls are the outgoing edges in source order, deduplicated by callee.
	calls []callEdge
	// spawns are the `go` statements in this function, in source order.
	spawns []spawnSite
	// sources are direct nondeterminism-source references by taint kind.
	sources map[string][]sourceRef
	// writes are direct assignments to package-level variables.
	writes []globalWrite
	// hasSignal reports a goroutine-termination signal directly in the body
	// (channel receive, select, range over a channel, WaitGroup.Done/Wait,
	// or context.Context.Done).
	hasSignal bool
	// lockOps are the mutex events and call sites in source order, for the
	// acquired-while-held simulation.
	lockOps []lockOp
	// testFile marks functions declared in _test.go files; the
	// interprocedural checks never report on them.
	testFile bool
}

// Key returns the module-unique canonical name "pkgpath.Name".
func (n *FuncNode) Key() string { return n.Pkg.Path + "." + n.Name }

// Display returns the short human name used in messages and -why paths,
// e.g. "serve.(*Server).dispatch".
func (n *FuncNode) Display() string { return n.Pkg.Types.Name() + "." + n.Name }

// callEdge is one possible call from a function.
type callEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	// Dynamic marks an edge resolved through interface-method-set
	// over-approximation rather than a static callee.
	Dynamic bool
}

// spawnSite is one `go` statement.
type spawnSite struct {
	Pos token.Pos
	// Lit is the spawned function literal, when the statement is
	// `go func(...){...}(...)`.
	Lit *ast.FuncLit
	// Target is the spawned named function/method when resolvable.
	Target *FuncNode
	// Unresolved marks a spawn through a function value the graph cannot
	// see through (nil Lit and nil Target).
	Unresolved bool
}

// sourceRef is one direct reference to a nondeterminism source.
type sourceRef struct {
	Pos token.Pos
	// What names the source, e.g. "time.Now" or "math/rand.Float64".
	What string
}

// globalWrite is one direct assignment/IncDec targeting a package-level
// variable.
type globalWrite struct {
	Pos token.Pos
	// Var is the display name of the written variable.
	Var string
}

// lockOp is one event in a function's mutex timeline.
type lockOp struct {
	Pos token.Pos
	// Kind is one of lockAcquire, lockRelease, lockCall.
	Kind int
	// Class identifies the lock for acquire/release events.
	Class string
	// Deferred marks a release scheduled with defer (applies at return, so
	// the simulation never pops it).
	Deferred bool
	// Callee is the edge target for lockCall events.
	Callee *FuncNode
}

const (
	lockAcquire = iota
	lockRelease
	lockCall
)

// Taint kinds tracked by detpure.
const (
	taintClock = "clock"
	taintRand  = "rand"
	taintEnv   = "env"
)

// taintKinds is the fixed reporting order.
var taintKinds = [...]string{taintClock, taintRand, taintEnv}

// envFuncs are the os entry points that read the host environment.
var envFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

// callGraph is the whole-module graph plus the indexes the analyzers use.
type callGraph struct {
	// nodes in deterministic order: packages sorted by path, then position.
	nodes []*FuncNode
	// byObj resolves a declared function object to its node.
	byObj map[*types.Func]*FuncNode
	// byPkg lists a package's nodes in source order.
	byPkg map[string][]*FuncNode
	// byKey resolves a node's Key() back to the node.
	byKey map[string]*FuncNode
	// methodIndex maps a method name to every module method declared under
	// that name, with its receiver's named type, for interface dispatch.
	methodIndex map[string][]methodImpl
}

// methodImpl is one concrete method candidate for dynamic dispatch.
type methodImpl struct {
	recv *types.Named
	fn   *types.Func
}

// buildCallGraph constructs the graph over the loaded packages.
func buildCallGraph(fset *token.FileSet, pkgs []*Package) *callGraph {
	g := &callGraph{
		byObj:       make(map[*types.Func]*FuncNode),
		byPkg:       make(map[string][]*FuncNode),
		byKey:       make(map[string]*FuncNode),
		methodIndex: make(map[string][]methodImpl),
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	// Pass 1: declare nodes and index every named type's declared methods.
	type body struct {
		node  *FuncNode
		pkg   *Package
		roots []ast.Node
	}
	var bodies []body
	for _, pkg := range sorted {
		var initExprs []ast.Node
		initPos := token.NoPos
		for _, f := range pkg.Files {
			test := isTestFile(fset, f.Pos())
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					node := &FuncNode{
						Obj: obj, Pkg: pkg, Name: funcKey(obj),
						Pos: d.Pos(), testFile: test,
						sources: make(map[string][]sourceRef),
					}
					g.byObj[obj] = node
					g.byPkg[pkg.Path] = append(g.byPkg[pkg.Path], node)
					if d.Body != nil {
						bodies = append(bodies, body{node, pkg, []ast.Node{d.Body}})
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR || test {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, val := range vs.Values {
							if !initPos.IsValid() {
								initPos = val.Pos()
							}
							initExprs = append(initExprs, val)
						}
					}
				}
			}
		}
		if len(initExprs) > 0 {
			node := &FuncNode{
				Pkg: pkg, Name: "init", Pos: initPos,
				sources: make(map[string][]sourceRef),
			}
			g.byPkg[pkg.Path] = append(g.byPkg[pkg.Path], node)
			bodies = append(bodies, body{node, pkg, initExprs})
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				g.methodIndex[m.Name()] = append(g.methodIndex[m.Name()], methodImpl{named, m})
			}
		}
	}
	for _, pkg := range sorted {
		nodes := g.byPkg[pkg.Path]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos < nodes[j].Pos })
		g.nodes = append(g.nodes, nodes...)
		for _, n := range nodes {
			g.byKey[n.Key()] = n
		}
	}

	// Pass 2: scan bodies. All nodes exist, so edges resolve immediately.
	for _, b := range bodies {
		for _, root := range b.roots {
			g.scanBody(b.node, b.pkg, root)
		}
	}
	return g
}

// funcKey renders a declared function's within-package canonical name.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		if n, okn := t.(*types.Named); okn {
			return fmt.Sprintf("(%s%s).%s", ptr, n.Obj().Name(), fn.Name())
		}
	}
	return fn.Name()
}

// scanBody walks one function body (or init expression), collecting call
// edges, spawn sites, source references, global writes, termination
// signals, and lock events.
func (g *callGraph) scanBody(node *FuncNode, pkg *Package, root ast.Node) {
	info := pkg.Info
	seenCallee := make(map[*FuncNode]bool)
	// Calls consumed by a defer or go statement are handled at the parent
	// (defer: release applies at return; go: the call runs on another
	// goroutine, outside this function's lock timeline), so the child
	// CallExpr visit must not scan them a second time.
	consumed := make(map[*ast.CallExpr]bool)
	addEdge := func(callee *FuncNode, pos token.Pos, dynamic bool) {
		if callee == nil || callee == node {
			return
		}
		if !seenCallee[callee] {
			seenCallee[callee] = true
			node.calls = append(node.calls, callEdge{callee, pos, dynamic})
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[e].(*types.Func)
			if !ok {
				return true
			}
			for _, callee := range g.resolve(fn) {
				addEdge(callee.node, e.Pos(), callee.dynamic)
			}
		case *ast.SelectorExpr:
			g.scanSource(node, info, e)
		case *ast.GoStmt:
			consumed[e.Call] = true
			node.spawns = append(node.spawns, g.resolveSpawn(e, info))
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if v, ok := packageLevelTarget(info, lhs); ok {
					node.writes = append(node.writes, globalWrite{lhs.Pos(), v.Name()})
				}
			}
		case *ast.IncDecStmt:
			if v, ok := packageLevelTarget(info, e.X); ok {
				node.writes = append(node.writes, globalWrite{e.Pos(), v.Name()})
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				node.hasSignal = true
			}
		case *ast.SelectStmt:
			node.hasSignal = true
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					node.hasSignal = true
				}
			}
		case *ast.CallExpr:
			if !consumed[e] {
				g.scanCallAtoms(node, info, e, false)
			}
		case *ast.DeferStmt:
			consumed[e.Call] = true
			g.scanCallAtoms(node, info, e.Call, true)
		}
		return true
	})
}

// resolved is one possible callee of a function reference.
type resolved struct {
	node    *FuncNode
	dynamic bool
}

// resolve maps a referenced function object to its possible module nodes:
// the declared node for a concrete function, or every method-set candidate
// for an interface method.
func (g *callGraph) resolve(fn *types.Func) []resolved {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []resolved
		for _, impl := range g.methodIndex[fn.Name()] {
			if types.Implements(impl.recv, iface) || types.Implements(types.NewPointer(impl.recv), iface) {
				if node, ok := g.byObj[impl.fn]; ok {
					out = append(out, resolved{node, true})
				}
			}
		}
		return out
	}
	if node, ok := g.byObj[fn]; ok {
		return []resolved{{node, false}}
	}
	return nil
}

// resolveSpawn classifies one `go` statement.
func (g *callGraph) resolveSpawn(st *ast.GoStmt, info *types.Info) spawnSite {
	site := spawnSite{Pos: st.Pos()}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		site.Lit = fun
		return site
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if targets := g.resolve(fn); len(targets) == 1 && !targets[0].dynamic {
				site.Target = targets[0].node
				return site
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if targets := g.resolve(fn); len(targets) == 1 && !targets[0].dynamic {
				site.Target = targets[0].node
				return site
			}
		}
	}
	site.Unresolved = true
	return site
}

// scanSource records direct references to nondeterminism sources: the
// wall-clock entry points of package time, anything in math/rand (v1/v2),
// and the os environment readers.
func (g *callGraph) scanSource(node *FuncNode, info *types.Info, sel *ast.SelectorExpr) {
	if name, ok := pkgFunc(info, sel, "time"); ok && wallClockFuncs[name] {
		node.sources[taintClock] = append(node.sources[taintClock], sourceRef{sel.Pos(), "time." + name})
		return
	}
	if name, ok := pkgFunc(info, sel, "math/rand"); ok {
		node.sources[taintRand] = append(node.sources[taintRand], sourceRef{sel.Pos(), "math/rand." + name})
		return
	}
	if name, ok := pkgFunc(info, sel, "math/rand/v2"); ok {
		node.sources[taintRand] = append(node.sources[taintRand], sourceRef{sel.Pos(), "math/rand/v2." + name})
		return
	}
	if name, ok := pkgFunc(info, sel, "os"); ok && envFuncs[name] {
		node.sources[taintEnv] = append(node.sources[taintEnv], sourceRef{sel.Pos(), "os." + name})
	}
}

// scanCallAtoms records lock events, call events for the lock timeline, and
// WaitGroup/context termination signals for one call expression.
func (g *callGraph) scanCallAtoms(node *FuncNode, info *types.Info, call *ast.CallExpr, deferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Calls through plain identifiers still matter for the lock
		// timeline: a local function may acquire locks.
		if id, okID := ast.Unparen(call.Fun).(*ast.Ident); okID {
			if fn, okFn := info.Uses[id].(*types.Func); okFn {
				g.addLockCalls(node, fn, call.Pos())
			}
		}
		return
	}
	mobj, okM := info.Uses[sel.Sel].(*types.Func)
	if !okM {
		return
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if pkg := mobj.Pkg(); pkg != nil {
			switch {
			case pkg.Path() == "sync" && isRecvNamed(s.Recv(), "sync", "WaitGroup") &&
				(mobj.Name() == "Done" || mobj.Name() == "Wait"):
				node.hasSignal = true
				return
			case pkg.Path() == "context" && mobj.Name() == "Done":
				node.hasSignal = true
				return
			case pkg.Path() == "sync" && isMutexMethod(s.Recv(), mobj.Name()):
				if class, ok := lockClass(info, sel.X); ok {
					kind := lockAcquire
					if mobj.Name() == "Unlock" || mobj.Name() == "RUnlock" {
						kind = lockRelease
					}
					node.lockOps = append(node.lockOps, lockOp{
						Pos: call.Pos(), Kind: kind, Class: class, Deferred: deferred,
					})
				}
				return
			}
		}
	}
	g.addLockCalls(node, mobj, call.Pos())
}

// addLockCalls appends lockCall events for the resolved callees of fn.
func (g *callGraph) addLockCalls(node *FuncNode, fn *types.Func, pos token.Pos) {
	for _, callee := range g.resolve(fn) {
		if callee.node != node {
			node.lockOps = append(node.lockOps, lockOp{Pos: pos, Kind: lockCall, Callee: callee.node})
		}
	}
}

// isRecvNamed reports whether recv's (possibly pointer) type is the named
// type pkg.name.
func isRecvNamed(recv types.Type, pkgPath, name string) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isMutexMethod reports whether name is a lock/unlock method on
// sync.Mutex or sync.RWMutex.
func isMutexMethod(recv types.Type, name string) bool {
	switch name {
	case "Lock", "Unlock", "TryLock", "RLock", "RUnlock", "TryRLock":
	default:
		return false
	}
	return isRecvNamed(recv, "sync", "Mutex") || isRecvNamed(recv, "sync", "RWMutex")
}

// lockClass names the lock a mutex expression denotes: a struct field
// ("pkg.Type.field") or a package-level variable ("pkg.var"). Locks the
// graph cannot classify (locals, map entries) are ignored — lock ordering
// is about shared long-lived locks.
func lockClass(info *types.Info, expr ast.Expr) (string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			field, ok := s.Obj().(*types.Var)
			if !ok {
				return "", false
			}
			recv := s.Recv()
			if p, okp := recv.(*types.Pointer); okp {
				recv = p.Elem()
			}
			if n, okn := recv.(*types.Named); okn && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + field.Name(), true
			}
			return "", false
		}
		// Qualified package-level variable: pkg.Mu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			if _, okv := pkgLevelVar(v); okv {
				return v.Pkg().Name() + "." + v.Name(), true
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			if _, okv := pkgLevelVar(v); okv {
				return v.Pkg().Name() + "." + v.Name(), true
			}
		}
	}
	return "", false
}

// packageLevelTarget unwraps an assignment target (index, deref, selector,
// parenthesized forms) to its root identifier and reports whether that
// identifier names a package-level variable — of this package or, via a
// qualified pkg.Var selector, of an imported one.
func packageLevelTarget(info *types.Info, expr ast.Expr) (*types.Var, bool) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return pkgLevelVar(info.Uses[e.Sel])
				}
			}
			expr = e.X
		case *ast.Ident:
			return pkgLevelVar(info.Uses[e])
		default:
			return nil, false
		}
	}
}

// pkgLevelVar reports whether obj is a variable declared at package scope.
func pkgLevelVar(obj types.Object) (*types.Var, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	return v, true
}

// sortedClassNames returns m's keys sorted, for deterministic iteration.
func sortedClassNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
