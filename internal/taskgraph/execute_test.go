package taskgraph

import (
	"sync"
	"sync/atomic"
	"testing"

	"tianhe/internal/sim"
)

// TestExecuteTakesHighestPriority: a freed worker takes the ready task of
// highest Priority, not the earliest created. Two workers start on four
// roots: a blocker, two low-priority tasks and, created last, a task of
// middling priority. The blocker holds its worker until the middling task
// has started, so the other worker's next pick decides the test and no
// timing enters it: a creation-order queue runs both low tasks first.
func TestExecuteTakesHighestPriority(t *testing.T) {
	g := New()
	cl := cpuOnly("c", 1)
	var mu sync.Mutex
	var order []string
	started := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	high := make(chan struct{})
	g.Add(Task{Name: "blocker", Codelet: cl, Priority: 9, Run: func() { <-high }})
	for _, name := range []string{"low0", "low1"} {
		g.Add(Task{Name: name, Codelet: cl, Run: func() { started(name) }})
	}
	g.Add(Task{Name: "high", Codelet: cl, Priority: 1, Run: func() {
		started("high")
		close(high)
	}})
	Execute(g, 2)
	// Once high has started, the two low tasks may start in either order.
	if len(order) != 3 || order[0] != "high" {
		t.Errorf("bodies started in the order %v, want high first of three", order)
	}
}

// TestExecuteRunsEachBodyOnceAfterItsDeps runs random graphs from
// FuzzGraphSchedule's decoder on 1, 2, 3 and 8 workers. Every body counts
// its runs and checks, on atomics, that each of its dependencies has
// finished before it starts.
func TestExecuteRunsEachBodyOnceAfterItsDeps(t *testing.T) {
	rng := sim.NewRNG(53)
	data := make([]byte, 96)
	for i := 0; i < 200; i++ {
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		g, _, _ := decodeGraph(data)
		tasks := g.Tasks()
		for _, workers := range []int{1, 2, 3, 8} {
			runs, done := make([]atomic.Int32, len(tasks)), make([]atomic.Bool, len(tasks))
			var early atomic.Int32
			for _, task := range tasks {
				task.Run = func() {
					for _, d := range task.Deps() {
						if !done[d].Load() {
							early.Add(1)
						}
					}
					runs[task.ID()].Add(1)
					done[task.ID()].Store(true)
				}
			}
			Execute(g, workers)
			if n := early.Load(); n > 0 {
				t.Fatalf("graph %d, %d workers: %d bodies started before a dependency finished", i, workers, n)
			}
			for id := range runs {
				if n := runs[id].Load(); n != 1 {
					t.Fatalf("graph %d, %d workers: task %q ran %d times", i, workers, tasks[id].Name, n)
				}
			}
		}
	}
}
