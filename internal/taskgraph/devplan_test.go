package taskgraph

import (
	"fmt"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

// TestWholeGPUPlanIsHybridPlanAtAllRows is the equality that lets the
// whole-GPU and hybrid paths share one device plan: for any task, residency
// state and timeline state, the plan of a whole-device placement equals the
// hybrid plan whose device half owns every row — whatever the row count and
// whether or not reads are row-local.
func TestWholeGPUPlanIsHybridPlanAtAllRows(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(seed)
		mem := int64(1<<20) << rng.Intn(8)
		el := element.New(element.Config{Seed: seed, Virtual: true, GPUMem: mem})
		g := New()
		// Busy timelines, so the earliest start depends on the upload gate.
		el.GPU.Queue.AdvanceTo(sim.Time(rng.Float64()))
		el.GPU.DMA.AdvanceTo(sim.Time(rng.Float64()))

		task := &Task{Name: "t"}
		var cached []*Handle
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			// Sizes straddle the stream window (mem/4) on both sides.
			h := g.NewHandle(fmt.Sprintf("h%d", i), int64(1+rng.Intn(96))*mem/256)
			if rng.Intn(3) == 0 {
				cached = append(cached, h)
			}
			task.Accesses = append(task.Accesses, Access{h, AccessMode(rng.Intn(3))})
		}
		// The run sizes its residency slots from the graph's handles.
		r := NewScheduler(el, Options{}).newRun(g, 0)
		for _, h := range cached {
			r.res.Admit(h.id, h.bytes, sim.Span{}, nil)
			if err := r.res.Err(); err != nil {
				t.Fatal(err)
			}
		}
		readyAt := sim.Time(rng.Float64())
		whole := r.planDevice(task, 1, 1, false, readyAt)
		for _, rows := range []int{1, 2, 7, 256, 1 + rng.Intn(46080)} {
			for _, splitReads := range []bool{false, true} {
				if got := r.planDevice(task, rows, rows, splitReads, readyAt); got != whole {
					t.Fatalf("seed %d rows %d splitReads %v:\n hybrid plan %+v\n  whole plan %+v",
						seed, rows, splitReads, got, whole)
				}
			}
		}
	}
}
