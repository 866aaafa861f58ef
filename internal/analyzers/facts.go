package analyzers

// The facts layer: per-function summaries computed once over the call
// graph and shared by the interprocedural analyzers. The shape mirrors
// golang.org/x/tools analysis facts — a summary is attached to a function
// object and keyed per package — so a check written against this store
// ports to the real driver without redesign. Dynamic (interface-dispatch)
// edges can point at packages later in the order, so after seeding each
// function's direct facts the store runs a whole-graph fixpoint.

import (
	"fmt"
	"go/token"
)

// Step is one hop of a summary's witness path: either the direct source
// ("calls time.Now") or a call that reaches it ("calls serve.drain").
type Step struct {
	// File/Line/Col locate the witness site.
	File string
	Line int
	Col  int
	// What describes the hop, e.g. "calls time.Now" or "calls mpi.(*Comm).Send".
	What string
	// Source names the ultimate source this path reaches, e.g. "time.Now".
	Source string
	// Next is the Key() of the next function on the path; "" terminates.
	Next string
}

// FuncFacts is the summary of one function.
type FuncFacts struct {
	// Taint maps a taint kind (clock, rand, env) to the witness of the
	// first path by which this function reaches a source of that kind.
	Taint map[string]Step
	// Writes maps a package-level variable's name to the witness of a path
	// by which this function (transitively) writes it.
	Writes map[string]Step
	// Locks maps a lock class to the witness of a path by which this
	// function (transitively) acquires it.
	Locks map[string]Step
	// Terminates reports that a goroutine-termination signal (channel
	// receive, select, channel range, WaitGroup.Done/Wait, ctx.Done) is
	// reachable from this function.
	Terminates bool
}

// FactStore holds every function's facts, keyed per package.
type FactStore struct {
	// pkgs maps import path -> function key -> facts.
	pkgs map[string]map[string]*FuncFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]map[string]*FuncFacts)}
}

// FuncFacts returns the summary for the function keyed name in pkgPath,
// or nil when none was computed.
func (s *FactStore) FuncFacts(pkgPath, name string) *FuncFacts {
	return s.pkgs[pkgPath][name]
}

// facts returns (allocating if needed) the summary slot for node.
func (s *FactStore) facts(node *FuncNode) *FuncFacts {
	m := s.pkgs[node.Pkg.Path]
	if m == nil {
		m = make(map[string]*FuncFacts)
		s.pkgs[node.Pkg.Path] = m
	}
	f := m[node.Name]
	if f == nil {
		f = &FuncFacts{}
		m[node.Name] = f
	}
	return f
}

// computeFacts seeds every function's direct summary and then propagates
// summaries over the call graph to a fixpoint. Node and edge order are
// fixed by the graph, so the chosen witnesses — and therefore every
// reported path — are deterministic.
func computeFacts(fset *token.FileSet, g *callGraph) *FactStore {
	s := NewFactStore()

	step := func(pos token.Pos, what, source, next string) Step {
		p := fset.Position(pos)
		return Step{File: p.Filename, Line: p.Line, Col: p.Column, What: what, Source: source, Next: next}
	}

	// Seed direct facts.
	for _, node := range g.nodes {
		f := s.facts(node)
		for _, kind := range taintKinds {
			refs := node.sources[kind]
			if len(refs) == 0 {
				continue
			}
			if f.Taint == nil {
				f.Taint = make(map[string]Step)
			}
			f.Taint[kind] = step(refs[0].Pos, "calls "+refs[0].What, refs[0].What, "")
		}
		for _, w := range node.writes {
			if f.Writes == nil {
				f.Writes = make(map[string]Step)
			}
			if _, ok := f.Writes[w.Var]; !ok {
				f.Writes[w.Var] = step(w.Pos, "writes "+w.Var, w.Var, "")
			}
		}
		for _, op := range node.lockOps {
			if op.Kind != lockAcquire {
				continue
			}
			if f.Locks == nil {
				f.Locks = make(map[string]Step)
			}
			if _, ok := f.Locks[op.Class]; !ok {
				f.Locks[op.Class] = step(op.Pos, "locks "+op.Class, op.Class, "")
			}
		}
		f.Terminates = node.hasSignal
	}

	// Propagate to fixpoint. Properties only ever turn on, so iteration
	// terminates; scanning nodes and edges in their fixed order makes the
	// first-found witness stable across runs.
	for changed := true; changed; {
		changed = false
		for _, node := range g.nodes {
			f := s.facts(node)
			for _, edge := range node.calls {
				cf := s.facts(edge.Callee)
				via := "calls " + edge.Callee.Display()
				for _, kind := range taintKinds {
					cs, ok := cf.Taint[kind]
					if !ok {
						continue
					}
					if _, have := f.Taint[kind]; have {
						continue
					}
					if f.Taint == nil {
						f.Taint = make(map[string]Step)
					}
					f.Taint[kind] = step(edge.Pos, via, cs.Source, edge.Callee.Key())
					changed = true
				}
				for _, v := range sortedClassNames(cf.Writes) {
					if _, have := f.Writes[v]; have {
						continue
					}
					if f.Writes == nil {
						f.Writes = make(map[string]Step)
					}
					f.Writes[v] = step(edge.Pos, via, v, edge.Callee.Key())
					changed = true
				}
				for _, c := range sortedClassNames(cf.Locks) {
					if _, have := f.Locks[c]; have {
						continue
					}
					if f.Locks == nil {
						f.Locks = make(map[string]Step)
					}
					f.Locks[c] = step(edge.Pos, via, c, edge.Callee.Key())
					changed = true
				}
				if cf.Terminates && !f.Terminates {
					f.Terminates = true
					changed = true
				}
			}
		}
	}
	return s
}

// whyPath renders the witness chain starting at start's summary entry as
// human-readable lines for the -why flag: one "name: what (file:line:col)"
// per hop down to the direct source.
func whyPath(s *FactStore, g *callGraph, start *FuncNode, pick func(*FuncFacts) (Step, bool)) []string {
	var out []string
	node := start
	seen := map[string]bool{}
	for node != nil && !seen[node.Key()] {
		seen[node.Key()] = true
		f := s.facts(node)
		st, ok := pick(f)
		if !ok {
			break
		}
		out = append(out, fmt.Sprintf("%s %s at %s:%d:%d", node.Display(), st.What, st.File, st.Line, st.Col))
		if st.Next == "" {
			return out
		}
		node = findNode(g, st.Next)
	}
	return out
}

// findNode resolves a Key() back to its node.
func findNode(g *callGraph, key string) *FuncNode {
	return g.byKey[key]
}
