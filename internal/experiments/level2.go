package experiments

import (
	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/perfmodel"
)

// Level2Result quantifies the value of the second mapping level (database_c,
// Section IV.A): the CPU-side makespan of a DGEMM slice distribution with
// frozen equal splits versus the adaptive per-core splits, on an element
// whose cores genuinely differ (manufacturing bias plus the L2 interference
// of the comm-adjacent core).
type Level2Result struct {
	Xeon perfmodel.Xeon
	// EqualSeconds and AdaptiveSeconds are the converged CPU-side makespans.
	EqualSeconds, AdaptiveSeconds float64
	// Gain is EqualSeconds/AdaptiveSeconds - 1.
	Gain float64
	// Splits is the converged database_c state.
	Splits []float64
}

// Level2Study runs the comparison on the given processor model. The paper's
// motivating example: losing 1 of a core's 10 GFLOPS costs 28 GFLOPS of
// element throughput if the mapping does not adapt, "because the end time is
// the last who finishes".
func Level2Study(xeon perfmodel.Xeon, seed uint64) Level2Result {
	const m, n, k = 6000, 6000, 1216
	mk := func() *element.Element {
		return element.New(element.Config{
			Seed: seed, Virtual: true, Xeon: xeon,
			JitterSigma: -1, BiasSpread: 0.04,
		})
	}

	// makespan distributes m rows over the cores by the given fractions and
	// returns the slowest core's time (communication active, as during a
	// hybrid run).
	makespan := func(el *element.Element, splits []float64) (float64, []float64, []float64) {
		works := make([]float64, len(splits))
		times := make([]float64, len(splits))
		var worst float64
		var sum float64
		for _, s := range splits {
			sum += s
		}
		for i, s := range splits {
			rows := int(float64(m) * s / sum)
			if rows == 0 {
				continue
			}
			t := el.CPU.Core(i).Seconds(rows, n, k, true)
			works[i] = 2 * float64(rows) * float64(n) * float64(k)
			times[i] = t
			if t > worst {
				worst = t
			}
		}
		return worst, works, times
	}

	el := mk()
	nc := el.CPU.NumCores()
	equal := make([]float64, nc)
	for i := range equal {
		equal[i] = 1 / float64(nc)
	}
	eqSec, _, _ := makespan(el, equal)

	db := adaptive.NewDatabaseC(nc)
	var adSec float64
	for iter := 0; iter < 6; iter++ {
		var works, times []float64
		adSec, works, times = makespan(el, db.Splits(nil))
		db.Update(works, times)
	}

	return Level2Result{
		Xeon:            xeon,
		EqualSeconds:    eqSec,
		AdaptiveSeconds: adSec,
		Gain:            eqSec/adSec - 1,
		Splits:          db.Splits(nil),
	}
}
