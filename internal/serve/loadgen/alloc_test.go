package loadgen

import (
	"testing"

	"tianhe/internal/serve"
	"tianhe/internal/sim/simtest"
)

// allocsPerJobCeiling guards the replay's allocation count per offered job
// (server construction, replay and summary together, the way tianhebench's
// serve.allocs_per_job probe counts it). Measured 3.56 at the 4000 jobs/s
// rung once the engine took pre-sorted arrivals on its lane, the batcher
// recycled retired batches and the executor re-planned into one reused Plan
// (12.38 before); the ceiling sits ~15 % above so the count cannot creep
// back unnoticed. What remains is the closure SubmitAt schedules per
// arrival, the growth of the engine's lane and the result store, and per
// batch the hybrid runner's slices and per-band closures — the rung averages
// 2.8 jobs a batch.
const allocsPerJobCeiling = 4.1

func TestReplayAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	trace := Generate(Config{Seed: 2009, Clients: 1200, Rate: 4000, Horizon: 2})
	perRun := testing.AllocsPerRun(3, func() {
		s, err := serve.New(serve.Config{Seed: 2009})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(s, trace); err != nil {
			t.Fatal(err)
		}
	})
	perJob := perRun / float64(len(trace))
	t.Logf("%.2f allocations per job over %d jobs", perJob, len(trace))
	if perJob > allocsPerJobCeiling {
		t.Fatalf("%.2f allocations per job, ceiling %.2f", perJob, allocsPerJobCeiling)
	}
}
