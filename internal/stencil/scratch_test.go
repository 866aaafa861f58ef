package stencil

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tianhe/internal/fault"
	"tianhe/internal/taskgraph"
)

// nanGrid returns an n-cell grid of NaN: stale contents that no result may
// read.
func nanGrid(n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = math.NaN()
	}
	return g
}

// TestResultBeforeRun: before any step, Result is the initial condition,
// whatever the parity of Steps.
func TestResultBeforeRun(t *testing.T) {
	for _, steps := range []int{3, 4} {
		cfg := testConfig()
		cfg.Steps = steps
		init := cfg
		init.Steps = 0
		sameGrid(t, fmt.Sprintf("%d steps", steps), New(cfg).Result(), Reference(init))
	}
}

// TestSecondRunContinues: a second Run advances the first Run's result, so
// two Runs of 3 steps equal Reference at 6 steps, and two of 2 equal it at
// 4, at serial and parallel body execution.
func TestSecondRunContinues(t *testing.T) {
	for _, steps := range []int{3, 2} {
		cfg := testConfig()
		cfg.Steps = 2 * steps
		want := Reference(cfg)
		cfg.Steps = steps
		for _, par := range []int{1, 8} {
			s := New(cfg)
			for run := 0; run < 2; run++ {
				if _, err := s.Run(testElement(42), taskgraph.Options{Par: par}); err != nil {
					t.Fatalf("%d steps par %d run %d: %v", steps, par, run, err)
				}
			}
			sameGrid(t, fmt.Sprintf("2×%d steps par %d", steps, par), s.Result(), want)
		}
	}
}

// TestStaleSpare: a spare holding NaN — larger than the grid, as another
// sweep's would be — cannot reach the result, at either parity of Steps.
func TestStaleSpare(t *testing.T) {
	for _, steps := range []int{5, 4} {
		cfg := testConfig()
		cfg.Steps = steps
		spare.grid = nanGrid(2 * cfg.points())
		s := New(cfg)
		if _, err := s.Run(testElement(42), taskgraph.Options{Par: 8}); err != nil {
			t.Fatal(err)
		}
		sameGrid(t, fmt.Sprintf("%d steps", steps), s.Result(), Reference(cfg))
	}
}

// TestConcurrentSweeps: sweeps of two sizes running at once on separate
// goroutines share the one spare and each still equals its Reference.
func TestConcurrentSweeps(t *testing.T) {
	small, large := testConfig(), Config{NX: 24, NY: 22, NZ: 30, Steps: 3, BlockZ: 5, Seed: 78}
	var wg sync.WaitGroup
	for _, cfg := range []Config{small, large} {
		want := Reference(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				s := New(cfg)
				if _, err := s.Run(testElement(42), taskgraph.Options{Par: 2}); err != nil {
					t.Error(err)
					return
				}
				got := s.Result()
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Errorf("%dx%dx%d sweep %d: cell %d = %v, Reference %v",
							cfg.NX, cfg.NY, cfg.NZ, i, c, got[c], want[c])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStalledRunReturnsScratch: a Run that stalls behind a lost GPU with no
// CPU fallback executes no slab, keeps the initial grid as its Result, and
// still hands its borrowed grid back.
func TestStalledRunReturnsScratch(t *testing.T) {
	cfg := testConfig() // odd Steps: a swap would expose the borrowed grid
	healthy, err := NewVirtual(cfg).Run(testElement(42), taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewScenario("lost-gpu", healthy.Seconds(), 5)
	if err != nil {
		t.Fatal(err)
	}
	el := testElement(42)
	fault.Attach(in, el)
	spare.grid = nil
	s := New(cfg)
	if _, err := s.Run(el, taskgraph.Options{}); err == nil {
		t.Fatal("a lost GPU without CPU fallback did not stall the sweep")
	}
	if cap(spare.grid) < cfg.points() {
		t.Error("the stalled Run kept its borrowed grid")
	}
	init := cfg
	init.Steps = 0
	sameGrid(t, "stalled sweep", s.Result(), Reference(init))
}

// TestSpareKeepsLarger: the spare keeps the larger of a returned grid and
// the one it holds; a borrow takes it when it is large enough and allocates
// otherwise, leaving it in place.
func TestSpareKeepsLarger(t *testing.T) {
	spare.grid = nil
	small, large := borrowGrid(10), borrowGrid(20)
	returnGrid(large)
	returnGrid(small)
	if cap(spare.grid) != 20 {
		t.Fatalf("spare holds a grid of cap %d, want the 20-cell one", cap(spare.grid))
	}
	if g := borrowGrid(30); len(g) != 30 || cap(spare.grid) != 20 {
		t.Fatal("a 30-cell borrow took the 20-cell spare")
	}
	if g := borrowGrid(15); len(g) != 15 || cap(g) != 20 || spare.grid != nil {
		t.Fatal("a 15-cell borrow did not take the 20-cell spare")
	}
}
