package tianhe_test

// Micro-benchmarks of the real compute kernels and the bookkeeping under the
// paper's figures: wall-clock cost only. The figures' virtual numbers are
// rows of BENCH_paper.json, written by cmd/figures and pinned by
// TestPaperLedger; Table I is pinned by pipeline.TestTableISchedule.

import (
	"testing"

	"tianhe"
	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/experiments"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

func benchmarkDgemm(b *testing.B, m, n, k int, alpha, beta float64, workers int) {
	r := sim.NewRNG(1)
	a := matrix.NewDense(m, k)
	bb := matrix.NewDense(k, n)
	c := matrix.NewDense(m, n)
	a.FillRandom(r)
	bb.FillRandom(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmParallel(blas.NoTrans, blas.NoTrans, alpha, a, bb, beta, c, workers)
	}
	flops := blas.GemmFlops(m, n, k)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkDgemm256 measures the serial DGEMM kernel.
func BenchmarkDgemm256(b *testing.B) { benchmarkDgemm(b, 256, 256, 256, 1, 0, 1) }

// BenchmarkDgemmUpdate960x64 measures the shape LU issues at N=1024, NB=64:
// the rank-64 trailing update C(960x960) -= A(960x64)*B(64x960).
func BenchmarkDgemmUpdate960x64(b *testing.B) { benchmarkDgemm(b, 960, 960, 64, -1, 1, 1) }

// BenchmarkDgemm512Parallel measures the parallel DGEMM path.
func BenchmarkDgemm512Parallel(b *testing.B) { benchmarkDgemm(b, 512, 512, 512, 1, 0, 4) }

// BenchmarkDgetrf measures the real blocked LU factorization at lu-real's
// order, N=1024 with NB=64, on one worker and on the default worker count
// (GOMAXPROCS).
func BenchmarkDgetrf(b *testing.B) {
	const n = 1024
	src := matrix.NewDense(n, n)
	src.FillRandom(sim.NewRNG(2))
	for _, c := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(c.name, func(b *testing.B) {
			a, ipiv := matrix.NewDense(n, n), make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.CopyFrom(src)
				b.StartTimer()
				if err := hpl.Dgetrf(a, ipiv, hpl.Options{NB: 64, Workers: c.workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(hpl.LinpackFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkAdaptiveLookupUpdate measures the Section IV bookkeeping the
// paper calls negligible: one database lookup plus one feedback update.
func BenchmarkAdaptiveLookupUpdate(b *testing.B) {
	a := adaptive.NewAdaptive(64, 1e13, 0.889, 3)
	obs := adaptive.Observation{
		Work: 1e10, GSplit: 0.889, TG: 0.05, TC: 0.05,
		CoreWorks: []float64{1, 1, 1}, CoreTimes: []float64{1, 1, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.GSplit(obs.Work)
		a.Observe(obs)
	}
}

// BenchmarkSchedulerRunEvicting measures Scheduler.Run alone on the graph-d1
// shape under eviction pressure: the whole look-ahead-1 factorisation graph at
// N = 46080 (19,019 tasks over 1,444 tiles of 11.8 MB) against the element's
// 1 GiB of device memory, so most placements evict. The graph and its element
// are rebuilt outside the timer, because bookings accumulate on the element.
func BenchmarkSchedulerRunEvicting(b *testing.B) {
	var rep taskgraph.Report
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		el := element.New(element.Config{Seed: experiments.DefaultSeed, Virtual: true})
		g := hpl.BuildLUGraph(46080, nil, nil, el, nil, hpl.GraphOptions{NB: 1216, Lookahead: 1})
		sch := taskgraph.NewScheduler(el, taskgraph.Options{})
		b.StartTimer()
		var err error
		if rep, err = sch.Run(g, 0); err != nil {
			b.Fatal(err)
		}
	}
	if rep.BytesOut == 0 {
		b.Fatal("nothing was written back: the run did not evict")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Tasks), "ns/task")
	b.ReportMetric(rep.GFLOPS(), "vGFLOPS")
}

// BenchmarkPipelinePlanning measures task-queue construction for a
// full-size Linpack update.
func BenchmarkPipelinePlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pipeline.NewPlan(40000, 40000, 1216, 5376, true)
		if len(p.Tasks) == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkHybridGemmReal measures a real (computing) hybrid DGEMM on a
// scaled-down element.
func BenchmarkHybridGemmReal(b *testing.B) {
	el := element.New(element.Config{Seed: 3, JitterSigma: -1, GPUMem: 8 << 20, GPUTexture: 256})
	run := tianhe.NewRunner(el, tianhe.ACMLGBoth)
	r := sim.NewRNG(4)
	n := 320
	a := matrix.NewDense(n, n)
	bb := matrix.NewDense(n, n)
	c := matrix.NewDense(n, n)
	a.FillRandom(r)
	bb.FillRandom(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Gemm(1, a, bb, 0, c, el.Now())
	}
}

// BenchmarkDgemmPacked256 measures DgemmPacked, which is Dgemm under its
// older name: it should read the same as BenchmarkDgemm256.
func BenchmarkDgemmPacked256(b *testing.B) {
	r := sim.NewRNG(5)
	n := 256
	a := matrix.NewDense(n, n)
	bb := matrix.NewDense(n, n)
	c := matrix.NewDense(n, n)
	a.FillRandom(r)
	bb.FillRandom(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmPacked(1, a, bb, 0, c)
	}
	flops := blas.GemmFlops(n, n, n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
