package linpacksim

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim/simtest"
)

// allocsPerTaskCeiling bounds what one graph-stepper run at the paper's size
// allocates per task it schedules, everything included: the Sim, its element,
// the graph, the scheduler's scratch and reports. Measured 2.30 — a task's
// name, a tile handle's name, and the odd per-Run object — against 8.68 when
// every iteration made a new graph of heap tasks with two cost closures each.
// The ceiling sits under both regressions it is there to catch: per-task cost
// closures (4.3) and a taskgraph.New per iteration instead of Reset (2.61).
const allocsPerTaskCeiling = 2.5

func TestGraphStepAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := Config{N: 46080, NB: 1216, Variant: element.ACMLGBoth, Seed: 2009, Graph: true, Lookahead: 1}
	tasks := 0
	allocs := testing.AllocsPerRun(2, func() {
		tasks = 0
		s := NewSim(cfg)
		for !s.Done() {
			s.Step()
			tasks += s.graph.Len()
		}
	})
	if tasks < 18000 {
		t.Fatalf("the run scheduled %d tasks, want the 38 tile-graph iterations (over 18,000)", tasks)
	}
	if per := allocs / float64(tasks); per > allocsPerTaskCeiling {
		t.Errorf("%.0f allocations over %d tasks = %.2f per task, ceiling %.1f", allocs, tasks, per, allocsPerTaskCeiling)
	} else {
		t.Logf("%.0f allocations over %d tasks = %.2f per task", allocs, tasks, per)
	}
}
