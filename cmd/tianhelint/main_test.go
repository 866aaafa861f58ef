package main

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"tianhe/internal/analyzers"
)

// shipped loads the module as committed — test files included, as make
// lint does — once per test binary: the load (parse, type-check, call
// graph, facts) is most of a lint run and read-only afterwards, so every
// test below analyzes the same one.
var shipped struct {
	once sync.Once
	root string
	mod  *analyzers.Module
	err  error
	took time.Duration
}

func shippedModule(t *testing.T) (string, *analyzers.Module) {
	t.Helper()
	shipped.once.Do(func() {
		start := time.Now() //lint:ignore nowalltime guarding the wall-clock latency of the lint run itself
		shipped.root, shipped.mod, shipped.err = load(true)
		shipped.took = time.Since(start) //lint:ignore nowalltime guarding the wall-clock latency of the lint run itself
	})
	if shipped.err != nil {
		t.Fatalf("loading module packages: %v", shipped.err)
	}
	return shipped.root, shipped.mod
}

// TestShippedTreeIsClean is the acceptance gate: the full analyzer suite —
// including the interprocedural detpure/lockorder/goroleak checks, the
// deadcode surface audit and, via IncludeTests, the clock/rand contract
// inside _test.go files — must report zero findings over the module as
// committed. Any new time.Now call, global math/rand use, contract-package
// impurity, lock-order cycle, leaked goroutine, or export nothing calls in
// the tree fails this test (and therefore `go test ./...` and `make check`).
func TestShippedTreeIsClean(t *testing.T) {
	_, mod := shippedModule(t)
	if len(mod.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing parts of the tree", len(mod.Pkgs))
	}
	for _, f := range analyzers.RunModule(mod, analyzers.All()) {
		t.Errorf("%s", f)
	}
}

// TestParFindingsIdentical pins the -par contract: the whole-module run at
// -par 1 and -par 8 must produce byte-identical output and the same exit
// code (the passes fan out over read-only module state, so this also runs
// the suite's concurrency under -race in CI). The load plus the serial run
// doubles as the latency guard: whole-module analysis must stay under 30
// seconds or `make lint` stops being something people run before committing.
func TestParFindingsIdentical(t *testing.T) {
	root, mod := shippedModule(t)
	lint := func(par int) (string, int) {
		var out, errOut bytes.Buffer
		code := report(&out, &errOut, root, mod, analyzers.All(), par, false, false)
		return out.String(), code
	}
	start := time.Now() //lint:ignore nowalltime guarding the wall-clock latency of the lint run itself
	serial, codeSerial := lint(1)
	elapsed := shipped.took + time.Since(start) //lint:ignore nowalltime guarding the wall-clock latency of the lint run itself
	parallel, codeParallel := lint(8)
	if serial != parallel {
		t.Errorf("-par 1 and -par 8 output differ:\n--- par 1 ---\n%s\n--- par 8 ---\n%s", serial, parallel)
	}
	if codeSerial != codeParallel {
		t.Errorf("-par 1 exit %d, -par 8 exit %d", codeSerial, codeParallel)
	}
	if elapsed > 30*time.Second {
		t.Errorf("whole-module analysis took %v; the 30s budget keeps make lint usable pre-commit", elapsed)
	}
}

// BenchmarkLintModule tracks the cost of one whole-module analysis run
// (load, type-check, call graph, facts fixpoint, all checks).
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out, errOut bytes.Buffer
		if code := run(&out, &errOut, []string{"-par", "8"}); code == 2 {
			b.Fatalf("lint load error: %s", errOut.String())
		}
	}
}
