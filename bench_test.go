package tianhe_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks of the real compute kernels.
// The figure benchmarks report the simulation's virtual performance numbers
// as custom metrics (vGFLOPS / vTFLOPS) alongside the usual wall-clock cost
// of regenerating them.

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

// BenchmarkFig8DGEMM regenerates Figure 8: hybrid DGEMM performance by
// matrix size for the five configurations. The reported vGFLOPS metric is
// the virtual rate at N = 12288.
func BenchmarkFig8DGEMM(b *testing.B) {
	for _, v := range tianhe.Variants {
		b.Run(v.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := tianhe.ElementConfig{Seed: experiments.DefaultSeed, Virtual: true}
				if v == tianhe.CPUOnly {
					cfg.CPUCores = 4
				}
				el := tianhe.NewElement(cfg)
				run := tianhe.NewRunnerWithCapacity(el, v, 2.0*12288*12288*12288)
				for j := 0; j < 3; j++ {
					last = run.GemmVirtual(12288, 12288, 12288, 1, el.Now()).GFLOPS()
				}
			}
			b.ReportMetric(last, "vGFLOPS")
		})
	}
}

// BenchmarkFig9Linpack regenerates Figure 9: single-element Linpack at the
// paper's headline size N = 46080 for each configuration.
func BenchmarkFig9Linpack(b *testing.B) {
	for _, v := range tianhe.Variants {
		b.Run(v.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res := tianhe.SimulateLinpack(tianhe.SimulateConfig{
					N: 46080, Variant: v, Seed: experiments.DefaultSeed,
					PageableLibrary: v == tianhe.ACMLG,
				})
				last = res.GFLOPS
			}
			b.ReportMetric(last, "vGFLOPS")
		})
	}
}

// BenchmarkFig10SplitAdaptation regenerates Figure 10: the database_g
// snapshot after an adaptive Linpack run. The metric is the number of
// workload buckets the run adapted.
func BenchmarkFig10SplitAdaptation(b *testing.B) {
	var touched int
	for i := 0; i < b.N; i++ {
		entries, _ := experiments.Fig10Instrumented(experiments.DefaultSeed, 46080, nil)
		touched = 0
		for _, e := range entries {
			if e.Touched {
				touched++
			}
		}
	}
	b.ReportMetric(float64(touched), "buckets")
}

// BenchmarkFig11CabinetPolicies regenerates Figure 11: adaptive versus
// Qilin-trained mapping at 64 processes in one cabinet. The metric is each
// policy's virtual GFLOPS.
func BenchmarkFig11CabinetPolicies(b *testing.B) {
	for _, pol := range []string{"adaptive", "qilin-trained"} {
		b.Run(pol, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				ours, qilin := experiments.Fig11(experiments.DefaultSeed, []int{64}, 1)
				if pol == "adaptive" {
					last, _ = ours.Y(64)
				} else {
					last, _ = qilin.Y(64)
				}
			}
			b.ReportMetric(last, "vGFLOPS")
		})
	}
}

// BenchmarkFig12CabinetScaling regenerates Figure 12's endpoints: one
// cabinet and the full 80-cabinet machine, reporting virtual TFLOPS.
func BenchmarkFig12CabinetScaling(b *testing.B) {
	for _, cab := range []int{1, 80} {
		name := "1-cabinet"
		if cab == 80 {
			name = "80-cabinets"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s := experiments.Fig12(experiments.DefaultSeed, []int{cab}, 1)
				last, _ = s.Y(float64(cab))
			}
			b.ReportMetric(last, "vTFLOPS")
		})
	}
}

// BenchmarkFig13FullMachineProgress regenerates Figure 13: the cumulative
// performance curve of the full-machine run. The metric is the final
// cumulative vTFLOPS (the paper's 563.1).
func BenchmarkFig13FullMachineProgress(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig13(experiments.DefaultSeed, 1)
		last = pts[len(pts)-1].CumTFLOPS
	}
	b.ReportMetric(last, "vTFLOPS")
}

// BenchmarkTableISchedule regenerates Table I: the CT/NT pipeline schedule
// for the four bounce-ordered tasks.
func BenchmarkTableISchedule(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		p := pipeline.NewPlan(2*4096, 2*4096, 4096, 4096, true)
		out = pipeline.FormatSchedule(pipeline.Schedule(pipeline.BounceOrderNames(p)))
	}
	if len(out) == 0 {
		b.Fatal("empty schedule")
	}
}

// --- Micro-benchmarks of the real kernels underneath the figures ---

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

// BenchmarkDgetrf measures the real blocked LU factorization.
func BenchmarkDgetrf(b *testing.B) {
	const n = 384
	src := matrix.NewDense(n, n)
	src.FillRandom(sim.NewRNG(2))
	ipiv := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := src.Clone()
		b.StartTimer()
		if err := hpl.Dgetrf(a, ipiv, hpl.Options{NB: 64}); err != nil {
			b.Fatal(err)
		}
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
