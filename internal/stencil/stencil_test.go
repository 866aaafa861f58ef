package stencil

import (
	"fmt"
	"math"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/taskgraph"
)

func testConfig() Config {
	return Config{NX: 20, NY: 18, NZ: 26, Steps: 5, BlockZ: 6, Seed: 77}
}

func testElement(seed uint64) *element.Element {
	return element.New(element.Config{Seed: seed, Virtual: true})
}

// TestGraphMatchesReference: executing the sweep through the graph runtime —
// slab tasks in dependency order — must reproduce the plain serial sweep bit
// for bit, at serial and parallel body execution.
func TestGraphMatchesReference(t *testing.T) {
	want := Reference(testConfig())
	for _, par := range []int{1, 8} {
		s := New(testConfig())
		rep, err := s.Run(testElement(42), taskgraph.Options{Par: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		got := s.Result()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("par %d: cell %d = %v, want %v", par, i, got[i], want[i])
			}
		}
		cfg := s.Config()
		if wantTasks := cfg.Steps * cfg.Blocks(); rep.Tasks != wantTasks {
			t.Errorf("par %d: %d tasks, want %d", par, rep.Tasks, wantTasks)
		}
	}
}

// TestScheduleDeterministic: two runs of the same sweep produce identical
// schedules and makespans.
func TestScheduleDeterministic(t *testing.T) {
	run := func() taskgraph.Report {
		s := New(testConfig())
		rep, err := s.Run(testElement(42), taskgraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.End != b.End || a.TasksGPU != b.TasksGPU || len(a.TaskSpans) != len(b.TaskSpans) {
		t.Fatalf("schedules diverged: %v/%d vs %v/%d", a.End, a.TasksGPU, b.End, b.TasksGPU)
	}
	for i := range a.TaskSpans {
		if a.TaskSpans[i] != b.TaskSpans[i] {
			t.Fatalf("span %d diverged: %+v vs %+v", i, a.TaskSpans[i], b.TaskSpans[i])
		}
	}
}

// TestWavefrontOverlapsSteps: with neighbour-only dependencies, some slab
// must start step t+1 before the last slab of step t has finished — the
// pipelining a bulk-synchronous sweep cannot do.
func TestWavefrontOverlapsSteps(t *testing.T) {
	s := NewVirtual(Config{NX: 96, NY: 96, NZ: 96, Steps: 4, BlockZ: 8, Seed: 1})
	rep, err := s.Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lastOf := map[int]float64{} // step -> latest finish
	firstOf := map[int]float64{}
	for _, ts := range rep.TaskSpans {
		var step, b int
		if _, err := fmt.Sscanf(ts.Name, "jac(%d,%d)", &step, &b); err != nil {
			t.Fatalf("unparseable task name %q", ts.Name)
		}
		if ts.End > lastOf[step] {
			lastOf[step] = ts.End
		}
		if f, ok := firstOf[step]; !ok || ts.Start < f {
			firstOf[step] = ts.Start
		}
	}
	overlapped := false
	for step := 1; step < s.Config().Steps; step++ {
		if firstOf[step] < lastOf[step-1] {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("no step ever overlapped its predecessor — the wavefront degenerated to bulk-synchronous")
	}
}

// TestVirtualFig8Scale schedules a Fig-8-class grid in virtual mode: half a
// billion points, no arithmetic, placement and transfers only.
func TestVirtualFig8Scale(t *testing.T) {
	s := NewVirtual(Config{NX: 768, NY: 768, NZ: 768, Steps: 4, BlockZ: 16, Seed: 3})
	rep, err := s.Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GFLOPS() <= 0 || rep.Tasks != 4*48 {
		t.Fatalf("degenerate virtual sweep: %d tasks, %v GFLOPS", rep.Tasks, rep.GFLOPS())
	}
	if rep.TasksGPU == 0 {
		t.Error("the bandwidth-bound kernel never placed on the GPU")
	}
}

// TestHybridSlabsSplitAndMatchReference: with the hybrid body armed, some
// slab tasks split across both devices, the makespan does not regress against
// whole-device placement, and the arithmetic stays bit-identical to the
// serial reference (a hybrid booking is a timing decision, not a different
// body).
func TestHybridSlabsSplitAndMatchReference(t *testing.T) {
	cfg := Config{NX: 96, NY: 96, NZ: 96, Steps: 4, BlockZ: 8, Seed: 1}
	whole := NewVirtual(cfg)
	base, err := whole.Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hybrid = true
	hyb := NewVirtual(cfg)
	rep, err := hyb.Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksHyb == 0 {
		t.Error("no slab task ever ran its hybrid body")
	}
	if rep.End > base.End {
		t.Errorf("hybrid makespan %.4fs regressed against whole-device %.4fs",
			rep.Seconds(), base.Seconds())
	}

	rcfg := testConfig()
	want := Reference(rcfg)
	rcfg.Hybrid = true
	for _, par := range []int{1, 8} {
		s := New(rcfg)
		if _, err := s.Run(testElement(42), taskgraph.Options{Par: par}); err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		got := s.Result()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("par %d: cell %d = %v, want %v — the hybrid split changed the arithmetic",
					par, i, got[i], want[i])
			}
		}
	}
}

// TestSweepRecoversFromGPULoss: the sweep degrades to the CPU cores during a
// context loss and still produces the reference answer.
func TestSweepRecoversFromGPULoss(t *testing.T) {
	want := Reference(testConfig())
	s := New(testConfig())
	healthy, err := s.Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}

	in, err := fault.NewScenario("lost-gpu", healthy.Seconds(), 5)
	if err != nil {
		t.Fatal(err)
	}
	el := testElement(42)
	fault.Attach(in, el)
	s2 := New(testConfig())
	rep, err := s2.Run(el, taskgraph.Options{GPUFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled {
		t.Fatal("stalled despite CPU fallback")
	}
	if rep.TasksCPU == 0 {
		t.Error("no slab ever fell back to the CPU during the outage")
	}
	got := s2.Result()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d = %v, want %v — faults changed the arithmetic", i, got[i], want[i])
		}
	}
}

// rowKernel is a row path: run calls f with it selected.
type rowKernel struct {
	name string
	run  func(f func())
}

// rowKernels are the row paths this host can run.
func rowKernels() []rowKernel {
	ks := []rowKernel{{"go", func(f func()) {
		old := useKernel
		useKernel = false
		defer func() { useKernel = old }()
		f()
	}}}
	if useKernel {
		ks = append(ks, rowKernel{"avx2", func(f func()) { f() }})
	}
	return ks
}

// sameGrid fails the test at the first cell whose bits differ.
func sameGrid(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v, Reference %v", what, i, got[i], want[i])
		}
	}
}

// TestSlabKernelShapes: the graph sweep equals Reference bit for bit on
// every row path, at serial and parallel body execution, for rows too short
// to have an interior, rows that leave the kernel no whole group of four or
// a ragged tail, planes without interior rows, and slab depths that do not
// divide the grid.
func TestSlabKernelShapes(t *testing.T) {
	for _, nx := range []int{1, 2, 3, 4, 5, 6, 7, 13, 128} {
		for _, ny := range []int{1, 2, 3, 18} {
			for _, nz := range []int{1, 6, 11} {
				cfg := Config{NX: nx, NY: ny, NZ: nz, Steps: 3, BlockZ: 4, Seed: uint64(nx*ny + nz)}
				want := Reference(cfg)
				for _, k := range rowKernels() {
					k.run(func() {
						for _, par := range []int{1, 8} {
							s := New(cfg)
							if _, err := s.Run(testElement(42), taskgraph.Options{Par: par}); err != nil {
								t.Fatalf("%dx%dx%d %s par %d: %v", nx, ny, nz, k.name, par, err)
							}
							sameGrid(t, fmt.Sprintf("%dx%dx%d %s par %d", nx, ny, nz, k.name, par), s.Result(), want)
						}
					})
				}
			}
		}
	}
}

// FuzzSlabKernel sweeps fuzzed grids slab by slab on every row path, the
// second grid poisoned with NaN, and requires Reference's grid bit for bit.
func FuzzSlabKernel(f *testing.F) {
	for _, nx := range []int{1, 2, 3, 4, 5, 6, 7, 13, 128} {
		for _, ny := range []int{1, 2, 3, 18} {
			f.Add(nx, ny, 11, 4, uint64(nx*ny))
		}
	}
	f.Fuzz(func(t *testing.T, nx, ny, nz, blockZ int, seed uint64) {
		// In range, every argument maps to itself.
		cfg := Config{NX: 1 + int(uint(nx-1)%140), NY: 1 + int(uint(ny-1)%24), NZ: 1 + int(uint(nz-1)%16), Steps: 2, Seed: seed}
		cfg.BlockZ = 1 + int(uint(blockZ-1)%uint(cfg.NZ+1))
		want := Reference(cfg)
		for _, k := range rowKernels() {
			k.run(func() {
				s := New(cfg)
				s.buf[1] = nanGrid(len(s.buf[0]))
				for step := 0; step < cfg.Steps; step++ {
					in, out := s.buf[step%2], s.buf[1-step%2]
					for z0 := 0; z0 < cfg.NZ; z0 += cfg.BlockZ {
						s.updateSlab(in, out, z0, min(z0+cfg.BlockZ, cfg.NZ))
					}
				}
				sameGrid(t, fmt.Sprintf("%+v %s", cfg, k.name), s.buf[cfg.Steps%2], want)
			})
		}
	})
}
