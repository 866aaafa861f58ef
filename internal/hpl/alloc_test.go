package hpl

import (
	"runtime"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim/simtest"
	"tianhe/internal/taskgraph"
)

// Allocation ceilings of one Run and one GraphRun at N=512, NB=64, where
// the matrix alone is 2 MB. Both factor the generated matrix in place and
// verify against the regenerated one (GeneratedResidual), so neither holds a
// second copy of A. Measured 2.14 MB (Run; 2.07 before its LU ran as a task
// graph) and 2.33 MB (GraphRun, its element built beforehand); with a clone
// of A kept for the check they were 4.07 and 4.33 MB. The ceilings sit about 20 % above the measurements, and
// Run's is 1.25 matrices: a copy of A cannot come back unnoticed.
const (
	runAllocCeilingMB      = 2.5
	graphRunAllocCeilingMB = 2.8
)

// wholeGraphAllocsPerTaskCeiling and wholeGraphBytesPerTaskCeiling bound
// what building the whole-factorization graph at the paper's size (N=46080,
// NB=1216, look-ahead 1: 19,019 tasks) and running it once on a fresh
// Scheduler allocates per task. Measured 1.09 allocations and 521.8 bytes on
// amd64: each task's name, each handle's name, slab chunks, the task index
// and reader link table sized once by Graph.Grow, and the Run's scratch
// sized to the graph. It was 1.16 allocations and 548.7 bytes while every
// swap and prep carried a cost closure of its own and a Task held its cost
// functions and hybrid descriptor (176 bytes, now 152), 1.63 allocations
// while every handle kept its own reader slice and the dependency marks grew
// as a slice beside the tasks, and 1.17 allocations and 599.3 bytes while
// the task index and the link table grew by append. The allocation ceiling
// sits about 15 % above its measurement, the byte ceiling 2 %: regrowing
// either table costs more.
const (
	wholeGraphAllocsPerTaskCeiling = 1.25
	wholeGraphBytesPerTaskCeiling  = 532
)

// wholeGraphHybridAllocsPerTaskCeiling bounds the allocations per task of
// building the hybrid whole-factorization graph at the same size and running
// it once with the LU rate seeds. Measured 1.10 on amd64; it was 2.55 while
// every hybrid booking formatted its hyb(gN) device label afresh (the string
// and the boxed row count), 9.55 while every trailing update carried its own
// hybrid descriptor and two row-cost closures and every core slab of a
// hybrid booking formatted its label whether or not anything read it, and
// 13.8 while every trailing update carried three adapter closures around the
// split oracle and each hybrid booking made its two level-2 feedback slices.
// The ceiling sits about 15 % above the measurement.
const wholeGraphHybridAllocsPerTaskCeiling = 1.26

// allocMB returns the megabytes f allocates.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func TestRunAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	var err error
	mb := allocMB(func() { _, err = Run(512, 2009, Options{NB: 64}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f MB allocated", mb)
	if mb > runAllocCeilingMB {
		t.Fatalf("%.2f MB allocated, ceiling %.2f", mb, runAllocCeilingMB)
	}
}

func TestGraphRunAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	el := element.New(element.Config{Seed: 2009, GPUMem: 64 << 20, GPUTexture: 512, JitterSigma: -1, BiasSpread: 0.002})
	var err error
	mb := allocMB(func() { _, _, err = GraphRun(512, 2009, el, GraphOptions{NB: 64, Lookahead: 1, Hybrid: true}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f MB allocated", mb)
	if mb > graphRunAllocCeilingMB {
		t.Fatalf("%.2f MB allocated, ceiling %.2f", mb, graphRunAllocCeilingMB)
	}
}

func TestWholeGraphAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	el := element.New(element.Config{Seed: 2009, Virtual: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := BuildLUGraph(46080, nil, nil, el, nil, GraphOptions{NB: 1216, Lookahead: 1})
	rep, err := taskgraph.NewScheduler(el, taskgraph.Options{}).Run(g, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled || rep.Tasks != g.Len() || g.Len() < 19000 {
		t.Fatalf("placed %d of %d tasks (stalled %v), want the 19,019-task whole factorization", rep.Tasks, g.Len(), rep.Stalled)
	}
	allocs := after.Mallocs - before.Mallocs
	per := float64(allocs) / float64(g.Len())
	t.Logf("%d allocations over %d tasks = %.2f per task", allocs, g.Len(), per)
	if per > wholeGraphAllocsPerTaskCeiling {
		t.Errorf("%.2f allocations per task, ceiling %.2f", per, wholeGraphAllocsPerTaskCeiling)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	perB := float64(bytes) / float64(g.Len())
	t.Logf("%d bytes over %d tasks = %.1f per task", bytes, g.Len(), perB)
	if perB > wholeGraphBytesPerTaskCeiling {
		t.Errorf("%.1f bytes per task, ceiling %d", perB, wholeGraphBytesPerTaskCeiling)
	}
}

func TestWholeGraphHybridAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	el := element.New(element.Config{Seed: 2009, Virtual: true})
	opts := GraphOptions{NB: 1216, Lookahead: 1, Hybrid: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := BuildLUGraph(46080, nil, nil, el, nil, opts)
	sch := taskgraph.NewScheduler(el, taskgraph.Options{RateSeeds: GraphRateSeeds(el, opts.NB)})
	rep, err := sch.Run(g, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled || rep.Tasks != g.Len() || rep.TasksHyb == 0 {
		t.Fatalf("placed %d of %d tasks, %d hybrid (stalled %v), want the whole factorization with hybrid updates",
			rep.Tasks, g.Len(), rep.TasksHyb, rep.Stalled)
	}
	allocs := after.Mallocs - before.Mallocs
	per := float64(allocs) / float64(g.Len())
	t.Logf("%d allocations over %d tasks (%d hybrid) = %.2f per task", allocs, g.Len(), rep.TasksHyb, per)
	if per > wholeGraphHybridAllocsPerTaskCeiling {
		t.Errorf("%.2f allocations per task, ceiling %.2f", per, wholeGraphHybridAllocsPerTaskCeiling)
	}
}

// TestLUCountsMatchGraph holds luCounts, which sizes the whole-factorization
// graph up front, to the graph the builder actually makes.
func TestLUCountsMatchGraph(t *testing.T) {
	el := element.New(element.Config{Seed: 2009, Virtual: true})
	for _, c := range []struct{ n, nb int }{{64, 64}, {500, 64}, {512, 64}, {46080, 1216}} {
		g := BuildLUGraph(c.n, nil, nil, el, nil, GraphOptions{NB: c.nb, Lookahead: 1})
		reads := 0
		for _, task := range g.Tasks() {
			for _, a := range task.Accesses {
				if a.Mode == taskgraph.Read {
					reads++
				}
			}
		}
		wantTasks, wantReads := luCounts((c.n + c.nb - 1) / c.nb)
		if g.Len() != wantTasks || reads != wantReads {
			t.Errorf("N=%d NB=%d: %d tasks and %d reads, luCounts says %d and %d", c.n, c.nb, g.Len(), reads, wantTasks, wantReads)
		}
	}
}
