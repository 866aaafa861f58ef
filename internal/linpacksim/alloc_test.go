package linpacksim

import (
	"runtime"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim/simtest"
)

// allocsPerTaskCeiling and bytesPerTaskCeiling bound what one graph-stepper
// run at the paper's size allocates per task it schedules, everything
// included: the Sim, its element, the graph, the scheduler's scratch and the
// first iteration's handle names. Measured 1.09 allocations and 83.5 bytes
// (86 while a Task held its cost functions and hybrid descriptor): what
// remains is one name per task (the stepper's handles, span lists, reader
// links and dependency marks are all recycled from iteration to iteration).
// The ceilings sit about 15 % above, under the regressions they are there to
// catch: handle names formatted per iteration (2.05 allocations, 110 bytes),
// per-handle reader slices (1.34, 113) and a fresh span list per Run (149
// bytes — one allocation per Run, which only the byte count sees).
const (
	allocsPerTaskCeiling = 1.25
	bytesPerTaskCeiling  = 96
)

func TestGraphStepAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := Config{N: 46080, NB: 1216, Variant: element.ACMLGBoth, Seed: 2009, Graph: true, Lookahead: 1}
	tasks := 0
	run := func() {
		tasks = 0
		s := NewSim(cfg)
		for !s.Done() {
			s.Step()
			tasks += s.graph.Len()
		}
	}
	allocs := testing.AllocsPerRun(2, run)
	if tasks < 18000 {
		t.Fatalf("the run scheduled %d tasks, want the 38 tile-graph iterations (over 18,000)", tasks)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	per, bytes := allocs/float64(tasks), float64(after.TotalAlloc-before.TotalAlloc)/float64(tasks)
	t.Logf("%.0f allocations and %.0f bytes over %d tasks = %.2f and %.1f per task", allocs, bytes*float64(tasks), tasks, per, bytes)
	if per > allocsPerTaskCeiling {
		t.Errorf("%.2f allocations per task, ceiling %.2f", per, allocsPerTaskCeiling)
	}
	if bytes > bytesPerTaskCeiling {
		t.Errorf("%.1f bytes allocated per task, ceiling %d", bytes, bytesPerTaskCeiling)
	}
}
