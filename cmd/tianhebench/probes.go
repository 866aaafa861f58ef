package main

import (
	"runtime"

	"tianhe/internal/blas"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// Probes time one public call of a module at a fixed shape, from outside.
// They are grouped by the layer they measure; a workload's traced run runs
// the groups of the layers that do its work (workload.layers) and reads 0
// for the rest — the layers it bypasses.

// enough is the probes' stopping rule: 20 calls and 0.2 s — but a call that
// takes tenths of a second would make that rule cost minutes over all probes,
// so after half a second two calls suffice.
func enough(calls int, elapsed float64) bool {
	return calls >= 20 && elapsed >= 0.2 || calls >= 2 && elapsed >= 0.5
}

// timeIt returns the median host seconds of one fn call, repeated until
// enough; prep, when not nil, runs untimed before each call.
func timeIt(prep, fn func()) float64 {
	var samples []float64
	begin := now()
	for {
		if prep != nil {
			prep()
		}
		start := now()
		fn()
		samples = append(samples, since(start))
		if enough(len(samples), since(begin)) {
			return median(samples)
		}
	}
}

// mallocsPer returns the heap allocations one fn call makes, averaged over
// reps calls.
func mallocsPer(reps int, fn func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(reps)
}

// overheadPct is how much slower b is than a, in percent.
func overheadPct(a, b float64) float64 { return 100 * (b - a) / a }

// overheadOf prices what alt adds to base, in percent of base's median time.
// The two alternate call by call, so a host that changes speed slows both
// alike.
func overheadOf(base, alt func()) float64 {
	var a, b []float64
	begin := now()
	for {
		start := now()
		base()
		a = append(a, since(start))
		start = now()
		alt()
		b = append(b, since(start))
		if enough(len(a), since(begin)) {
			return overheadPct(median(a), median(b))
		}
	}
}

func randomDense(rng *sim.RNG, r, c int) *matrix.Dense {
	m := matrix.NewDense(r, c)
	m.FillRandom(rng)
	return m
}

// probeGroup measures one layer into out.
type probeGroup struct {
	layer string
	run   func(e env, out values) error
}

var probeGroups = []probeGroup{
	{"blas", probeBLAS},
	{"hpl", probeHPL},
	{"taskgraph", probeTaskgraph},
	{"element-model", probeElementModel},
	{"guards", probeGuards},
	{"cluster-real", probeClusterReal},
	{"mpi", probeMPI},
	{"recover", probeRecover},
	{"cluster-model", probeClusterModel},
	{"sweep", probeSweep},
	{"serve", probeServe},
	{"stencil", probeStencil},
}

func findProbeGroup(layer string) *probeGroup {
	for i := range probeGroups {
		if probeGroups[i].layer == layer {
			return &probeGroups[i]
		}
	}
	return nil
}

func probeBLAS(e env, out values) error {
	rng := sim.NewStream(e.seed, "tianhebench/blas")
	gemm := func(m, n, k int, call func(a, b, c *matrix.Dense)) float64 {
		a, b, c := randomDense(rng, m, k), randomDense(rng, k, n), matrix.NewDense(m, n)
		return blas.GemmFlops(m, n, k) / timeIt(nil, func() { call(a, b, c) }) / 1e9
	}
	plain := func(a, b, c *matrix.Dense) { blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c) }
	packed := func(a, b, c *matrix.Dense) { blas.DgemmPacked(1, a, b, 0, c) }
	out["blas.dgemm_gflops_256"] = gemm(256, 256, 256, plain)
	out["blas.dgemm_gflops_1024"] = gemm(1024, 1024, 1024, plain)
	out["blas.dgemm_packed_gflops_256"] = gemm(256, 256, 256, packed)
	out["blas.dgemm_packed_gflops_1024"] = gemm(1024, 1024, 1024, packed)
	out["blas.dgemm_par_gflops_1024"] = gemm(1024, 1024, 1024, func(a, b, c *matrix.Dense) {
		blas.DgemmParallel(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c, e.par)
	})
	// The rank-NB update LU issues at N=1024, NB=64:
	// C(960x960) -= A(960x64)·B(64x960).
	out["blas.dgemm_update_gflops"] = gemm(luN-luNB, luN-luNB, luNB, func(a, b, c *matrix.Dense) {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c)
	})

	a, b, c := randomDense(rng, 512, 512), randomDense(rng, 512, 512), matrix.NewDense(512, 512)
	trans := func() { blas.Dgemm(blas.Trans, blas.NoTrans, 1, a, b, 0, c) }
	out["blas.dgemm_trans_gflops_512"] = blas.GemmFlops(512, 512, 512) / timeIt(nil, trans) / 1e9
	out["blas.dgemm_allocs_per_call"] = mallocsPer(10, trans)

	// The U12 solve of the same iteration: unit-lower 64x64 against 64x960,
	// NB*NB*n flops.
	l11, u12 := randomDense(rng, luNB, luNB), randomDense(rng, luNB, luN-luNB)
	out["blas.dtrsm_gflops"] = float64(luNB*luNB*(luN-luNB)) / timeIt(nil, func() {
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
	}) / 1e9
	return nil
}

func probeHPL(e env, out values) error {
	a, b := hpl.Generate(luN, e.seed)
	lu, ipiv := matrix.NewDense(luN, luN), make([]int, luN)
	reload := func() { lu.CopyFrom(a) }
	var err error
	out["hpl.dgetrf_gflops_1024"] = hpl.LinpackFlops(luN) / timeIt(reload, func() {
		err = hpl.Dgetrf(lu, ipiv, hpl.Options{NB: luNB})
	}) / 1e9
	if err != nil {
		return err
	}
	out["hpl.graph_dgetrf_gflops_1024"] = hpl.LinpackFlops(luN) / timeIt(reload, func() {
		_, err = hpl.GraphDgetrf(lu, ipiv, luElement(e.seed), luGraphOptions(e.par))
	}) / 1e9
	if err != nil {
		return err
	}
	x := make([]float64, luN)
	out["hpl.solve_ms"] = 1e3 * timeIt(func() { copy(x, b) }, func() { hpl.SolveFactored(lu, ipiv, x) })
	var residual float64
	out["hpl.generate_verify_ms"] = 1e3 * timeIt(nil, func() {
		ga, gb := hpl.Generate(luN, e.seed)
		residual = hpl.ScaledResidual(ga, x, gb)
	})
	if err := checkResidual("hpl probe", residual, true); err != nil {
		return err
	}
	panel := matrix.NewDense(luN, luNB)
	out["hpl.panel_factor_ms"] = 1e3 * timeIt(func() { panel.CopyFrom(a.View(0, 0, luN, luNB)) }, func() {
		err = hpl.PanelFactor(panel, ipiv[:luNB])
	})
	return err
}
