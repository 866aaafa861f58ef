// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VI). Each Fig* function returns the data
// series the corresponding figure plots; Ledger turns one run of all of
// them into the paper-fidelity ledger cmd/figures writes, and the root bench
// suite runs them under testing.B. All runs are deterministic in their seed.
package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/adaptive"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/hybrid"
	"tianhe/internal/linpacksim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// DefaultSeed is the seed every experiment binary uses unless overridden.
const DefaultSeed = 2009 // the Top500 list year the paper's run appeared in

// Fig8Sizes is the DGEMM sweep of Figure 8.
var Fig8Sizes = []int{2048, 4096, 6144, 8192, 10240, 12288, 14336, 16384}

// variantPoint is one (variant, size) cell of the Fig. 8/9 sweeps; the cells
// are flattened variant-major so the sweep results land in serial order.
type variantPoint struct {
	v element.Variant
	n int
}

func variantPoints(sizes []int) []variantPoint {
	pts := make([]variantPoint, 0, len(element.Variants)*len(sizes))
	for _, v := range element.Variants {
		for _, n := range sizes {
			pts = append(pts, variantPoint{v, n})
		}
	}
	return pts
}

// variantSeries folds the flat per-point values back into one series per
// variant, in the exact order the serial loops produced.
func variantSeries(sizes []int, gs []float64) []*Series {
	var out []*Series
	i := 0
	for _, v := range element.Variants {
		s := &Series{Name: v.String()}
		for _, n := range sizes {
			s.Add(float64(n), gs[i])
			i++
		}
		out = append(out, s)
	}
	return out
}

// Fig8Instrumented measures hybrid DGEMM GFLOPS by matrix size for the
// five configurations. Adaptive variants report the second-run value, as
// the paper does ("the first run updates the databases"). A non-nil bundle
// receives runner counters, the adaptive GSplit/CSplit series, and live
// resource traces with tracks prefixed "<variant>.N<size>/"; it does not
// change the figures. The (variant, size) cells are independent simulated
// runs and execute on par workers; output is byte-identical for every par.
func Fig8Instrumented(seed uint64, sizes []int, tel *telemetry.Telemetry, par int) []*Series {
	if sizes == nil {
		sizes = Fig8Sizes
	}
	maxN := sizes[len(sizes)-1]
	gs := sweep.MapTel(context.Background(), par, tel, variantPoints(sizes),
		func(_ int, p variantPoint, tel *telemetry.Telemetry) float64 {
			cfg := element.Config{Seed: seed, Virtual: true}
			if p.v == element.CPUOnly {
				cfg.CPUCores = 4 // host-only runs use all four cores
			}
			el := element.New(cfg)
			var part adaptive.Partitioner
			if p.v.Adaptive() {
				work := 2 * float64(maxN) * float64(maxN) * float64(maxN)
				part = adaptive.NewAdaptive(64, work, el.InitialGSplit(), el.CPU.NumCores())
			}
			run := hybrid.New(el, p.v, adaptive.Instrument(part, tel))
			if tel.Enabled() {
				run.Instrument(tel)
				el.Instrument(tel, fmt.Sprintf("%s.N%d", p.v, p.n))
			}
			var g float64
			for i := 0; i < 3; i++ {
				g = run.GemmVirtual(p.n, p.n, p.n, 1, el.Now()).GFLOPS()
			}
			return g
		})
	return variantSeries(sizes, gs)
}

// Fig9Sizes is the Linpack sweep of Figure 9 (the paper's headline point is
// N = 46000; NB = 1216 rounds it to 46080's neighborhood).
var Fig9Sizes = []int{4864, 9728, 14592, 19456, 24320, 29184, 34048, 38912, 43776, 46080}

// Fig9Instrumented measures single-element Linpack GFLOPS by problem size
// for the five configurations, with telemetry (nil for none) threaded
// through every simulated run. The vendor-library baseline runs with
// pageable transfers (unmodified HPL hands it pageable memory); the
// optimized variants stage through the pinned pool. Each (variant, size)
// Linpack is an independent simulation; par workers run them concurrently
// with byte-identical output.
func Fig9Instrumented(seed uint64, sizes []int, tel *telemetry.Telemetry, par int) []*Series {
	if sizes == nil {
		sizes = Fig9Sizes
	}
	gs := sweep.MapTel(context.Background(), par, tel, variantPoints(sizes),
		func(_ int, p variantPoint, tel *telemetry.Telemetry) float64 {
			res := linpacksim.Run(linpacksim.Config{
				N: p.n, Variant: p.v, Seed: seed,
				PageableLibrary: p.v == element.ACMLG,
				Telemetry:       tel,
			})
			return res.GFLOPS
		})
	return variantSeries(sizes, gs)
}

// Fig10Instrumented runs one adaptive Linpack and returns database_g's
// split per workload bucket (GSplit versus workload, Figure 10), along with
// the initial peak-ratio value. With a bundle attached the run's per-update
// GSplit/CSplit evolution lands in its tracer as the "adaptive.gsplit" /
// "adaptive.work" / "adaptive.csplit.core<i>" counter series (Ledger reads
// the GSplit evolution from there).
func Fig10Instrumented(seed uint64, n int, tel *telemetry.Telemetry) (entries []adaptive.Entry, initial float64) {
	if n <= 0 {
		n = 46080
	}
	res := linpacksim.Run(linpacksim.Config{
		N: n, Variant: element.ACMLGBoth, Seed: seed, Telemetry: tel,
	})
	ad, ok := adaptive.AsAdaptive(res.Part)
	if !ok {
		panic("experiments: adaptive run returned a non-adaptive partitioner")
	}
	return ad.G.Snapshot(), ad.G.Initial()
}

// Fig11Processes is the process sweep of Figure 11 (one cabinet).
var Fig11Processes = []int{1, 2, 4, 8, 16, 32, 64}

// Fig11 compares the adaptive mapping against the Qilin-style trained
// mapping across process counts within a cabinet. The problem size grows
// with sqrt(P) to keep per-element memory constant. The process-count points
// run on par workers; the two policies of one point stay serial (they share
// nothing, but the point is already small).
func Fig11(seed uint64, procs []int, par int) (ours, qilin *Series) {
	if procs == nil {
		procs = Fig11Processes
	}
	type pair struct{ adaptive, trained float64 }
	pairs := sweep.Map(context.Background(), par, procs, func(_ int, p int) pair {
		n := scaledN(46080, p)
		var out pair
		for _, pol := range []cluster.Policy{cluster.PolicyAdaptive, cluster.PolicyTrained} {
			r := cluster.SimulateScale(cluster.ScaleConfig{
				N: n, NB: 1216, Processes: p, Seed: seed, Policy: pol,
			})
			if pol == cluster.PolicyAdaptive {
				out.adaptive = r.GFLOPS
			} else {
				out.trained = r.GFLOPS
			}
		}
		return out
	})
	ours = &Series{Name: "adaptive"}
	qilin = &Series{Name: "qilin-trained"}
	for i, p := range procs {
		ours.Add(float64(p), pairs[i].adaptive)
		qilin.Add(float64(p), pairs[i].trained)
	}
	return ours, qilin
}

// Fig12Cabinets is the cabinet sweep of Figure 12.
var Fig12Cabinets = []int{1, 2, 5, 10, 20, 40, 80}

// Fig12 measures Linpack TFLOPS by cabinet count on the down-clocked
// configuration, problem size growing from 280,000 to the full-machine
// 2,240,000. The sweep is doubly parallel: cabinet points fan out across
// par workers AND each point shards its per-element inner loop — the
// 80-cabinet point alone is most of the sweep's cost, so point-level
// parallelism cannot carry it.
func Fig12(seed uint64, cabinets []int, par int) *Series {
	if cabinets == nil {
		cabinets = Fig12Cabinets
	}
	return newSeries("TFLOPS", intXs(cabinets), sweep.Map(context.Background(), par, cabinets, func(_ int, c int) float64 {
		n := scaledN(280000, c)
		if c == 80 {
			n = 2240000 - 2240000%1216
		}
		r := cluster.SimulateScale(cluster.ScaleConfig{
			N: n, NB: 1216, Processes: 64 * c, Seed: seed,
			Policy: cluster.PolicyAdaptive, Downclock: true, Workers: par,
		})
		return r.TFLOPS
	}))
}

// Fig13 runs the full-machine configuration and returns the cumulative
// performance (TFLOPS) versus progress curve. A single run — par shards
// the per-element loop inside the scale simulation.
func Fig13(seed uint64, par int) []cluster.ProgressPoint {
	r := cluster.SimulateScale(cluster.ScaleConfig{
		N: 2240000 - 2240000%1216, NB: 1216, Processes: 5120, Seed: seed,
		Policy: cluster.PolicyAdaptive, Downclock: true, RecordProgress: true,
		Workers: par,
	})
	return r.Progress
}

// scaledN grows a base problem size with sqrt(units), rounded down to a
// multiple of the 1216 blocking factor (constant memory per element).
func scaledN(base, units int) int {
	s := 1.0
	for i := 0; i < 60; i++ { // Newton iteration for sqrt(units); units <= 80
		s = 0.5 * (s + float64(units)/s)
	}
	n := int(float64(base) * s)
	n -= n % 1216
	if n < 1216 {
		n = 1216
	}
	return n
}
