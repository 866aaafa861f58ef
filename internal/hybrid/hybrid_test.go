package hybrid

import (
	"math"
	"testing"

	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

func newPart(el *element.Element) *adaptive.Adaptive {
	return adaptive.NewAdaptive(32, 1e13, el.InitialGSplit(), el.CPU.NumCores())
}

func runnerFor(v element.Variant, el *element.Element) *Runner {
	var part adaptive.Partitioner
	if v.Adaptive() {
		part = newPart(el)
	}
	return New(el, v, part)
}

func TestGemmCorrectAllVariants(t *testing.T) {
	r := sim.NewRNG(1)
	m, n, k := 260, 200, 150
	a := matrix.NewDense(m, k)
	b := matrix.NewDense(k, n)
	c0 := matrix.NewDense(m, n)
	a.FillRandom(r)
	b.FillRandom(r)
	c0.FillRandom(r)
	want := c0.Clone()
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, want)

	for _, v := range element.Variants {
		el := element.New(element.Config{Seed: 7, JitterSigma: -1})
		run := runnerFor(v, el)
		c := c0.Clone()
		rep := run.Gemm(1.5, a, b, 0.5, c, 0)
		if d := c.MaxDiff(want); d > 1e-11 {
			t.Fatalf("%v: result wrong by %v", v, d)
		}
		if rep.Work != 2*float64(m)*float64(n)*float64(k) {
			t.Fatalf("%v: work accounting wrong", v)
		}
		if rep.Seconds() <= 0 {
			t.Fatalf("%v: no time elapsed", v)
		}
	}
}

func TestCPUOnlyNeverTouchesGPU(t *testing.T) {
	el := element.New(element.Config{Seed: 2, CPUCores: 4, Virtual: true})
	run := New(el, element.CPUOnly, nil)
	rep := run.GemmVirtual(2048, 2048, 2048, 1, 0)
	if rep.GSplit != 0 || rep.TG != 0 {
		t.Fatalf("CPU-only used the GPU: %+v", rep)
	}
	if el.GPU.DMA.Available() != 0 || el.GPU.Queue.Available() != 0 {
		t.Fatal("GPU resources must stay idle")
	}
	if rep.TC <= 0 {
		t.Fatal("CPU side must have run")
	}
}

func TestACMLGIsGPUOnly(t *testing.T) {
	el := element.New(element.Config{Seed: 3, Virtual: true})
	run := New(el, element.ACMLG, nil)
	rep := run.GemmVirtual(4096, 4096, 1024, 1, 0)
	if rep.GSplit != 1 || rep.TC != 0 {
		t.Fatalf("ACMLG must offload everything: %+v", rep)
	}
}

func TestAdaptiveSplitsWork(t *testing.T) {
	el := element.New(element.Config{Seed: 4, Virtual: true, JitterSigma: -1})
	run := runnerFor(element.ACMLGAdaptive, el)
	rep := run.GemmVirtual(4096, 4096, 1024, 1, 0)
	if rep.GSplit <= 0.5 || rep.GSplit >= 1 {
		t.Fatalf("first-call split %v should be near the 0.889 peak ratio", rep.GSplit)
	}
	if rep.TG <= 0 || rep.TC <= 0 {
		t.Fatal("both sides must have executed")
	}
	if len(rep.CoreWorks) != el.CPU.NumCores() {
		t.Fatal("per-core measurements missing")
	}
}

func TestAdaptiveImprovesOverIterations(t *testing.T) {
	// Repeatedly executing the same shape must converge the split so the
	// makespan drops versus the first (peak-ratio) execution.
	el := element.New(element.Config{Seed: 5, Virtual: true, JitterSigma: -1})
	run := runnerFor(element.ACMLGAdaptive, el)
	m, n, k := 6144, 6144, 1216
	var first, last float64
	for i := 0; i < 8; i++ {
		rep := run.GemmVirtual(m, n, k, 1, el.Now())
		if i == 0 {
			first = rep.Seconds()
		}
		last = rep.Seconds()
	}
	if last >= first {
		t.Fatalf("adaptation did not help: first %v s, last %v s", first, last)
	}
	// At convergence the two sides should finish close together.
	rep := run.GemmVirtual(m, n, k, 1, el.Now())
	imbalance := math.Abs(rep.TG-rep.TC) / math.Max(rep.TG, rep.TC)
	if imbalance > 0.12 {
		t.Fatalf("converged imbalance %.1f%% too large", imbalance*100)
	}
}

func TestBothBeatsACMLGOnBigShapes(t *testing.T) {
	shape := func(v element.Variant) float64 {
		el := element.New(element.Config{Seed: 6, Virtual: true, JitterSigma: -1})
		run := runnerFor(v, el)
		var last float64
		for i := 0; i < 5; i++ { // let adaptation settle
			last = run.GemmVirtual(12288, 12288, 1216, 1, el.Now()).Seconds()
		}
		return last
	}
	acmlg := shape(element.ACMLG)
	both := shape(element.ACMLGBoth)
	if both >= acmlg {
		t.Fatalf("ACMLG+both %v s must beat ACMLG %v s", both, acmlg)
	}
	if gain := acmlg/both - 1; gain < 0.08 {
		t.Fatalf("combined gain %.1f%% suspiciously small", gain*100)
	}
}

func TestPipeAloneHelpsOnMultiTaskShapes(t *testing.T) {
	shape := func(v element.Variant) float64 {
		el := element.New(element.Config{Seed: 8, Virtual: true, JitterSigma: -1})
		return runnerFor(v, el).GemmVirtual(13000, 13000, 1216, 1, 0).Seconds()
	}
	if shape(element.ACMLGPipe) >= shape(element.ACMLG) {
		t.Fatal("pipe must beat plain ACMLG on multi-task shapes")
	}
}

func TestVariantPartitionerMismatchPanics(t *testing.T) {
	el := element.New(element.Config{Seed: 9})
	defer func() {
		if recover() == nil {
			t.Fatal("adaptive variant without partitioner should panic")
		}
	}()
	New(el, element.ACMLGAdaptive, nil)
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	el := element.New(element.Config{Seed: 10})
	run := New(el, element.ACMLG, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	run.Gemm(1, matrix.NewDense(4, 5), matrix.NewDense(6, 7), 0, matrix.NewDense(4, 7), 0)
}

func TestObservationFeedsDatabase(t *testing.T) {
	el := element.New(element.Config{Seed: 11, Virtual: true, JitterSigma: -1})
	part := newPart(el)
	run := New(el, element.ACMLGBoth, part)
	work := 2.0 * 4096 * 4096 * 1216
	before := part.GSplit(work)
	run.GemmVirtual(4096, 4096, 1216, 1, 0)
	after := part.GSplit(work)
	if before == after {
		t.Fatal("execution must update database_g")
	}
}

func TestReportGFLOPSSane(t *testing.T) {
	el := element.New(element.Config{Seed: 12, Virtual: true, JitterSigma: -1})
	run := runnerFor(element.ACMLGBoth, el)
	var rep Report
	for i := 0; i < 6; i++ {
		rep = run.GemmVirtual(13000, 13000, 13000, 1, el.Now())
	}
	g := rep.GFLOPS()
	// A converged hybrid square DGEMM should land well above the CPU-only
	// ceiling (~37) and below the 280.5 element peak.
	if g < 120 || g > 280 {
		t.Fatalf("hybrid DGEMM rate %v GFLOPS implausible", g)
	}
}
