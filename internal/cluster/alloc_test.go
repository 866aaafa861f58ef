package cluster

import (
	"runtime"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim/simtest"
)

// solveAllocCeilingMB guards the bytes the real distributed solves allocate:
// one 2x2 look-ahead SolveDistributed2D and one four-rank SolveElastic that
// loses rank 1 halfway, at N=768, NB=64. Measured 35.6 MB once each rank
// generated only the blocks it owns, the residual check regenerated A and
// the XOR rebuild folded into the received parity (46.2 MB with the whole
// system generated up front, 85.6 MB before devices recycled freed buffers
// and the solvers handed spent message payloads back to their world); the
// ceiling sits about 20 % above, so a fresh allocation per step cannot creep
// back unnoticed. What remains is structural — each rank's local blocks and
// parity, the gathered factors — plus each device's and each world's first
// use of a buffer shape.
const solveAllocCeilingMB = 43.0

func TestSolveAllocBudget(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	elastic := ElasticConfig{N: 768, NB: 64, Ranks: 4, Seed: 2009}
	healthy, err := SolveElastic(elastic)
	if err != nil {
		t.Fatal(err)
	}
	elastic.Failures = []FailureSpec{{Rank: 1, At: 0.5 * healthy.Seconds}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SolveDistributed2D(Dist2DConfig{N: 768, NB: 64, P: 2, Q: 2, Seed: 2009, Variant: element.ACMLGBoth, Lookahead: true}); err != nil {
		t.Fatal(err)
	}
	if res, err := SolveElastic(elastic); err != nil || len(res.Failed) != 1 {
		t.Fatalf("elastic solve: failed %v, %v", res.Failed, err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("%.1f MB allocated", mb)
	if mb > solveAllocCeilingMB {
		t.Fatalf("%.1f MB allocated, ceiling %.1f", mb, solveAllocCeilingMB)
	}
}
