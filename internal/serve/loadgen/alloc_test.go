package loadgen

import (
	"runtime"
	"testing"

	"tianhe/internal/serve"
	"tianhe/internal/sim/simtest"
)

// allocsPerJobCeiling and bytesPerJobCeiling guard what a replay allocates
// per offered job (server construction, replay and summary together, the
// way tianhebench's serve.allocs_per_job probe counts it). At the 4000
// jobs/s rung a replay measured 0.044 allocations and 127 bytes per job once
// arrivals streamed from the trace as one engine run, batch events took
// bound handlers and the hybrid runner kept its core splits, row shares and
// level-2 measurements in scratch (3.56 allocations before); each ceiling
// sits ~15 % above. What remains is output: the Result store (96 bytes a
// job) and its id index, the summary's latency array, and a fixed cost per
// server — its workers' elements and runners, the batcher's maps and the
// few batches it ever allocates. The byte ceiling keeps a per-arrival
// event, closure or queue from coming back unnoticed even where it would
// cost a single allocation.
const (
	allocsPerJobCeiling = 0.051
	bytesPerJobCeiling  = 146
)

func TestReplayAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	trace := Generate(Config{Seed: 2009, Clients: 1200, Rate: 4000, Horizon: 2})
	replay := func() {
		s, err := serve.New(serve.Config{Seed: 2009})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(s, trace); err != nil {
			t.Fatal(err)
		}
	}
	perJob := testing.AllocsPerRun(3, replay) / float64(len(trace))

	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		replay()
	}
	runtime.ReadMemStats(&after)
	bytesPerJob := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(trace))

	t.Logf("%.3f allocations and %.0f bytes per job over %d jobs", perJob, bytesPerJob, len(trace))
	if perJob > allocsPerJobCeiling {
		t.Errorf("%.3f allocations per job, ceiling %.3f", perJob, allocsPerJobCeiling)
	}
	if bytesPerJob > bytesPerJobCeiling {
		t.Errorf("%.0f bytes per job, ceiling %d", bytesPerJob, bytesPerJobCeiling)
	}
}
