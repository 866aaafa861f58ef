package analyzers

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestNoWallTime(t *testing.T)   { RunFixture(t, NoWallTime, "nowalltime") }
func TestNoGlobalRand(t *testing.T) { RunFixture(t, NoGlobalRand, "noglobalrand") }
func TestTelemetryNil(t *testing.T) { RunFixture(t, TelemetryNil, "telemetrynil") }
func TestFaultNil(t *testing.T)     { RunFixture(t, FaultNil, "faultnil") }
func TestFloatEq(t *testing.T)      { RunFixture(t, FloatEq, "floateq") }
func TestMapIterOrder(t *testing.T) { RunFixture(t, MapIterOrder, "mapiterorder") }
func TestGoroLeak(t *testing.T)     { RunFixture(t, GoroLeak, "goroleak") }

// detpureContracts is the fixture contract table: four packages carry
// contracts, everything else in the tree (mid, leaf, impl, sweepcb) is
// deliberately uncontracted so findings land only on the contract side.
func detpureContracts() *ContractTable {
	return &ContractTable{
		Rules: map[string]Contract{
			"tianhelint.test/detpure/abft":    {Pure: true, NoGlobalWrites: true, Why: "fixture abft contract"},
			"tianhelint.test/detpure/serve":   {Pure: true, NoGlobalWrites: true, Why: "fixture serve contract"},
			"tianhelint.test/detpure/loadgen": {Pure: true, NoGlobalWrites: true, Why: "fixture loadgen contract"},
			"tianhelint.test/detpure/core":    {Pure: true, Why: "fixture core contract"},
		},
	}
}

func TestDetPure(t *testing.T) {
	RunModuleFixture(t, []*Analyzer{DetPure}, "detpure", &ModuleOptions{Contracts: detpureContracts()})
}

func TestLockOrder(t *testing.T) {
	RunModuleFixture(t, []*Analyzer{LockOrder}, "lockcycle", nil)
}

func TestDeadCode(t *testing.T) {
	RunModuleFixture(t, []*Analyzer{DeadCode}, "deadcode", &ModuleOptions{IncludeTests: true})
}

// TestTransitiveLeakOldSuiteMissed pins the acceptance case for retiring
// the per-package purity analyzers: core never references time directly,
// so the syntactic checks pass it — while the interprocedural contract
// check charges it with the wall-clock read two hops away in leaf, and
// carries the full call path as the finding's why.
func TestTransitiveLeakOldSuiteMissed(t *testing.T) {
	l, pkgs := loadFixtureTree(t, "detpure", false)
	var core *Package
	for _, p := range pkgs {
		if p.Path == "tianhelint.test/detpure/core" {
			core = p
		}
	}
	if core == nil {
		t.Fatal("fixture package core not loaded")
	}

	old := RunModule(BuildModule(l.Fset(), []*Package{core}, nil), []*Analyzer{NoWallTime, NoGlobalRand})
	if len(old) != 0 {
		t.Fatalf("per-package syntactic checks on core alone found %d findings, want 0: %v", len(old), old)
	}

	mod := BuildModule(l.Fset(), pkgs, &ModuleOptions{Contracts: detpureContracts()})
	var rate *Finding
	for _, f := range RunModule(mod, []*Analyzer{DetPure}) {
		if strings.Contains(f.Message, "core.Rate reaches time.Now") {
			g := f
			rate = &g
		}
	}
	if rate == nil {
		t.Fatal("detpure did not report the transitive leak through core.Rate")
	}
	if len(rate.Why) < 3 {
		t.Fatalf("core.Rate why path has %d hops, want the full core->mid->leaf chain: %q", len(rate.Why), rate.Why)
	}
	if last := rate.Why[len(rate.Why)-1]; !strings.Contains(last, "time.Now") {
		t.Errorf("why path should end at the direct source, got %q", last)
	}
}

func TestSuiteIsComplete(t *testing.T) {
	want := []string{"nowalltime", "noglobalrand", "telemetrynil", "faultnil", "floateq", "mapiterorder", "deadcode", "detpure", "lockorder", "goroleak"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%s) did not return the suite analyzer", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name should return nil")
	}
}

// TestMalformedDirectives checks that lint:ignore directives missing a
// reason or check name are reported and suppress nothing: the fixture's
// time.Now calls must still be flagged.
func TestMalformedDirectives(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analyzers", "testdata", "src", "lintdirective")
	pkg, err := l.LoadDir(dir, "tianhelint.test/lintdirective")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunModule(BuildModule(l.Fset(), []*Package{pkg}, nil), []*Analyzer{NoWallTime})
	var directives, wallTime int
	for _, f := range findings {
		switch f.Check {
		case "lintdirective":
			directives++
		case "nowalltime":
			wallTime++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if directives != 2 {
		t.Errorf("got %d lintdirective findings, want 2", directives)
	}
	if wallTime != 2 {
		t.Errorf("got %d nowalltime findings, want 2 (malformed directives must not suppress)", wallTime)
	}
}
