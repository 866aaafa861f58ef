package stencil

import (
	"runtime"
	"testing"

	"tianhe/internal/sim/simtest"
	"tianhe/internal/taskgraph"
)

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepAllocCeiling: once a sweep of one size has run, New plus Run of
// each later one allocates its own grid and twice its graph's bytes at most —
// the graph, and the Scheduler's run scratch sized to it — so the second
// grid comes from the spare. At 64³ (a 2 MiB grid, 32 slab tasks) a sweep
// measured the grid plus 1.44 (whole-device) and 1.45 (hybrid) graphs,
// averaged over four sweeps against the run-to-run noise of a few KB; a
// fresh second grid per Run adds another 2 MiB.
func TestSweepAllocCeiling(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, hybrid := range []bool{true, false} {
		cfg := Config{NX: 64, NY: 64, NZ: 64, Steps: 4, BlockZ: 8, Hybrid: hybrid, Seed: 2009}
		if _, err := New(cfg).Run(testElement(42), taskgraph.Options{Par: 2}); err != nil {
			t.Fatal(err)
		}
		el := testElement(42)
		var s *Sweep
		var err error
		const sweeps = 4
		got := allocBytes(func() {
			for i := 0; i < sweeps && err == nil; i++ {
				s = New(cfg)
				_, err = s.Run(el, taskgraph.Options{Par: 2})
			}
		}) / sweeps
		if err != nil {
			t.Fatal(err)
		}
		graph := allocBytes(func() { s.Graph() })
		ceiling := 8*uint64(cfg.points()) + 2*graph
		t.Logf("hybrid %v: %d bytes, ceiling %d (graph %d)", hybrid, got, ceiling, graph)
		if got > ceiling {
			t.Errorf("hybrid %v: a later sweep allocated %d bytes, ceiling %d: one grid plus twice its graph's %d",
				hybrid, got, ceiling, graph)
		}
	}
}
