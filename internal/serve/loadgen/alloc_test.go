package loadgen

import (
	"testing"

	"tianhe/internal/serve"
	"tianhe/internal/sim/simtest"
)

// allocsPerJobCeiling guards the replay's allocation count per offered job
// (server construction, replay and summary together, the way tianhebench's
// serve.allocs_per_job probe counts it). Measured 12.38 at the 4000 jobs/s
// rung when the result store went dense and the per-job pending object went
// away (15.86 before); the ceiling sits ~10 % above so the count cannot creep
// back unnoticed. Most of what remains is per batch, not per job — the rung
// averages 2.8 jobs a batch, and one hybrid call allocates ~25 objects inside
// pipeline.NewPlan and Executor.run.
const allocsPerJobCeiling = 13.6

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
