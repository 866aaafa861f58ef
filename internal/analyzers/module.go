package analyzers

import (
	"go/token"
)

// Module is the whole-program view shared by every pass of one lint run:
// the loaded packages, the call graph over them, the propagated function
// facts, and the contract table. It is built once and read-only
// afterwards, so per-package passes may run concurrently (cmd/tianhelint
// -par).
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package
	// IncludeTests mirrors the loader flag: _test.go sources were loaded,
	// and analyzers that opt in (Analyzer.Tests) also report in them.
	IncludeTests bool
	// Contracts is the per-package determinism contract table detpure
	// enforces.
	Contracts ContractTable
	// Facts holds the propagated per-function summaries.
	Facts *FactStore

	graph      *callGraph
	lockCycles []lockCycle
	surface    *surface
}

// ModuleOptions configures BuildModule.
type ModuleOptions struct {
	// IncludeTests marks that the packages were loaded with test files.
	IncludeTests bool
	// Contracts overrides the shipped contract table (fixtures use this).
	Contracts *ContractTable
}

// BuildModule constructs the shared interprocedural state: the call graph
// over pkgs and the facts computed to fixpoint. opt may be nil.
func BuildModule(fset *token.FileSet, pkgs []*Package, opt *ModuleOptions) *Module {
	m := &Module{
		Fset:      fset,
		Pkgs:      pkgs,
		Contracts: DefaultContracts(),
	}
	if opt != nil {
		m.IncludeTests = opt.IncludeTests
		if opt.Contracts != nil {
			m.Contracts = *opt.Contracts
		}
	}
	m.graph = buildCallGraph(fset, pkgs)
	m.Facts = computeFacts(fset, m.graph)
	m.lockCycles = computeLockCycles(fset, m.graph, m.Facts)
	m.surface = buildSurface(fset, pkgs)
	return m
}

// RunPackage applies the checks to one package — including lint:ignore
// suppression and malformed-directive reporting for that package's files —
// and returns its findings sorted by position. Module state is read-only
// here, so concurrent calls on different packages are race-free.
func (m *Module) RunPackage(pkg *Package, checks []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range checks {
		pass := &Pass{
			Analyzer:  a,
			Fset:      m.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Mod:       m,
			findings:  &findings,
		}
		a.Run(pass)
	}
	findings = append(findings, malformedDirectives(m.Fset, pkg.Files)...)
	findings = suppress(m.Fset, []*Package{pkg}, findings)
	SortFindings(findings)
	return findings
}

// pkgNodes returns the call-graph nodes of one package in source order.
func (m *Module) pkgNodes(path string) []*FuncNode {
	return m.graph.byPkg[path]
}
