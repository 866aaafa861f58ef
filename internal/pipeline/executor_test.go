package pipeline

import (
	"math"
	"testing"

	"tianhe/internal/blas"
	"tianhe/internal/gpu"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// smallDevice returns a real-data device scaled down so multi-task plans are
// cheap to test: a 2 MiB memory with a 128 texture limit.
func smallDevice() *gpu.Device {
	return gpu.New(gpu.Config{MemBytes: 4 << 20, TextureLimit: 128})
}

func execCase(t *testing.T, opts Options, m, n, k int, alpha, beta float64) Report {
	t.Helper()
	return execCaseOn(t, smallDevice(), opts, m, n, k, alpha, beta)
}

func execCaseOn(t *testing.T, dev *gpu.Device, opts Options, m, n, k int, alpha, beta float64) Report {
	t.Helper()
	e := NewExecutor(dev, opts)
	r := sim.NewRNG(uint64(m + n + k))
	a := matrix.NewDense(m, k)
	b := matrix.NewDense(k, n)
	c := matrix.NewDense(m, n)
	a.FillRandom(r)
	b.FillRandom(r)
	c.FillRandom(r)
	want := c.Clone()
	blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)
	rep := e.Execute(alpha, a, b, beta, c, 0)
	if d := c.MaxDiff(want); d > 1e-11 {
		t.Fatalf("pipelined DGEMM wrong by %v (opts %+v)", d, opts)
	}
	return rep
}

func TestExecuteCorrectAllModes(t *testing.T) {
	cases := []Options{
		{},                   // ACMLG baseline
		{Reuse: true},        // bounce + cache only
		{OverlapInput: true}, // CT/NT only
		{BlockedEO: true},    // fused output only
		Pipelined(),          // everything
	}
	for i, o := range cases {
		o.BlockRows = 32
		o.Tile = 96
		execCase(t, o, 300, 250, 200, 1.0, 1.0)
		execCase(t, o, 100, 100, 100, -0.5, 0.0)
		_ = i
	}
	// K spans three tiles and the device holds exactly the working set
	// ChooseTile sizes for, two operand tiles resident: staging a later
	// step's tiles evicts an earlier step's, which must have been read by then.
	tight := Pipelined()
	tight.Tile, tight.BlockRows = 64, 32
	dev := gpu.New(gpu.Config{MemBytes: 4*8*64*64 + 2*8*32*64, TextureLimit: 64})
	execCaseOn(t, dev, tight, 128, 128, 192, 1.0, 1.0)
}

// TestStaleDeviceStorage runs a DGEMM whose operands and accumulator hold
// NaN and ±Inf, then a beta == 0 DGEMM on the same device, whose buffers now
// recycle that poisoned storage. The second result must equal, bit for bit,
// the same call on a fresh device: every staged tile is written before it is
// read, and a beta == 0 tile never reads its stale contents.
func TestStaleDeviceStorage(t *testing.T) {
	const m, n, k = 200, 150, 130 // ragged last tiles at Tile 64
	for _, o := range []Options{{}, Pipelined()} {
		o.Tile, o.BlockRows = 64, 32
		dev := smallDevice()
		e := NewExecutor(dev, o)
		poison := func(d *matrix.Dense) {
			for i := range d.Data {
				d.Data[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
			}
		}
		pa, pb, pc := matrix.NewDense(m, k), matrix.NewDense(k, n), matrix.NewDense(m, n)
		poison(pa)
		poison(pb)
		poison(pc)
		e.Execute(1, pa, pb, 1, pc, 0)

		r := sim.NewRNG(5)
		a, b := matrix.NewDense(m, k), matrix.NewDense(k, n)
		a.FillRandom(r)
		b.FillRandom(r)
		got, want := matrix.NewDense(m, n), matrix.NewDense(m, n)
		poison(got) // beta == 0: C's values are never read
		e.Execute(-0.5, a, b, 0, got, 0)
		NewExecutor(smallDevice(), o).Execute(-0.5, a, b, 0, want, 0)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("opts %+v: value %d is %v on a recycling device, %v on a fresh one", o, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestExecuteSingleTile(t *testing.T) {
	o := Options{Tile: 512, BlockRows: 64}
	rep := execCase(t, o, 100, 90, 80, 1, 1)
	if rep.Tasks != 1 {
		t.Fatalf("expected a single task, got %d", rep.Tasks)
	}
}

func TestReuseSkipsBytes(t *testing.T) {
	dev := gpu.New(gpu.Config{Virtual: true})
	base := NewExecutor(dev, Options{Tile: 1024, BlockRows: 128})
	rb := base.ExecuteVirtual(4096, 4096, 1024, 1, 0)
	dev2 := gpu.New(gpu.Config{Virtual: true})
	reuse := NewExecutor(dev2, Options{Reuse: true, Tile: 1024, BlockRows: 128})
	rr := reuse.ExecuteVirtual(4096, 4096, 1024, 1, 0)
	if rr.BytesSkipped == 0 {
		t.Fatal("reuse must skip some input bytes")
	}
	if rr.BytesIn >= rb.BytesIn {
		t.Fatalf("reuse transferred %d bytes, baseline %d", rr.BytesIn, rb.BytesIn)
	}
	if rr.Flops != rb.Flops {
		t.Fatal("flops must not depend on options")
	}
}

func TestBounceBeatsRowMajorOnTransfers(t *testing.T) {
	// With reuse on, the serpentine order re-uses a band at every task
	// transition; row-major cannot reuse at row breaks with a tiny cache.
	mk := func(bounce bool) int64 {
		dev := gpu.New(gpu.Config{Virtual: true, MemBytes: 64 << 20})
		e := NewExecutor(dev, Options{Reuse: bounce, Tile: 1024, BlockRows: 128})
		// Note: Reuse picks both ordering and caching; compare against the
		// no-reuse planner on the same shape.
		return e.ExecuteVirtual(3072, 3072, 1024, 1, 0).BytesIn
	}
	if mk(true) >= mk(false) {
		t.Fatal("bounce+cache must reduce transferred bytes")
	}
}

func TestOverlapShortensMakespan(t *testing.T) {
	shape := func(o Options) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := NewExecutor(dev, o)
		return e.ExecuteVirtual(8192, 8192, 2048, 1, 1).Seconds()
	}
	serial := shape(Options{Tile: 2048, BlockRows: 256})
	overlapped := shape(Options{OverlapInput: true, Tile: 2048, BlockRows: 256})
	if overlapped >= serial {
		t.Fatalf("overlap %v s should beat serial %v s", overlapped, serial)
	}
}

func TestBlockedEOShortensMakespan(t *testing.T) {
	shape := func(o Options) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := NewExecutor(dev, o)
		return e.ExecuteVirtual(8192, 4096, 2048, 1, 1).Seconds()
	}
	mono := shape(Options{Tile: 2048, BlockRows: 256})
	blocked := shape(Options{BlockedEO: true, Tile: 2048, BlockRows: 256})
	if blocked >= mono {
		t.Fatalf("blocked EO %v s should beat monolithic output %v s", blocked, mono)
	}
}

func TestFullPipelineBeatsBaseline(t *testing.T) {
	shape := func(o Options) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := NewExecutor(dev, o)
		return e.ExecuteVirtual(12288, 12288, 1216, 1, 1).Seconds()
	}
	baseline := shape(Options{})
	full := shape(Pipelined())
	if full >= baseline {
		t.Fatalf("full pipeline %v s should beat baseline %v s", full, baseline)
	}
	gain := baseline/full - 1
	if gain < 0.02 {
		t.Fatalf("pipeline gain %.1f%% suspiciously small", gain*100)
	}
}

func TestSingleTaskNoPipelineBenefit(t *testing.T) {
	// The paper: no pipe benefit when the matrix fits one task (N <= 8192),
	// except the blocked-EO output fusion. With BlockedEO disabled, overlap
	// and reuse change nothing for a single-task queue.
	shape := func(o Options) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := NewExecutor(dev, o)
		return e.ExecuteVirtual(4096, 4096, 1024, 1, 1).Seconds()
	}
	base := shape(Options{Tile: 8192, BlockRows: 512})
	pipe := shape(Options{Reuse: true, OverlapInput: true, Tile: 8192, BlockRows: 512})
	if base != pipe {
		t.Fatalf("single task: baseline %v vs pipe %v must match", base, pipe)
	}
}

func TestVirtualMatchesRealTiming(t *testing.T) {
	// The virtual path must book exactly the same schedule as the real one.
	opts := Options{Tile: 96, BlockRows: 32, Reuse: true, OverlapInput: true, BlockedEO: true}
	devR := smallDevice()
	eR := NewExecutor(devR, opts)
	r := sim.NewRNG(3)
	m, n, k := 200, 180, 150
	a := matrix.NewDense(m, k)
	b := matrix.NewDense(k, n)
	c := matrix.NewDense(m, n)
	a.FillRandom(r)
	b.FillRandom(r)
	c.FillRandom(r)
	repR := eR.Execute(1, a, b, 1, c, 0)

	devV := gpu.New(gpu.Config{Virtual: true, MemBytes: 4 << 20, TextureLimit: 128})
	eV := NewExecutor(devV, opts)
	repV := eV.ExecuteVirtual(m, n, k, 1, 0)
	if repR.Seconds() != repV.Seconds() {
		t.Fatalf("real %v s vs virtual %v s", repR.Seconds(), repV.Seconds())
	}
	if repR.BytesIn != repV.BytesIn || repR.BytesOut != repV.BytesOut {
		t.Fatalf("byte accounting differs: real %d/%d virtual %d/%d",
			repR.BytesIn, repR.BytesOut, repV.BytesIn, repV.BytesOut)
	}
}

func TestReportGFLOPS(t *testing.T) {
	rep := Report{Start: 0, End: 2, Flops: 4e9}
	if rep.GFLOPS() != 2 {
		t.Fatalf("GFLOPS = %v", rep.GFLOPS())
	}
	if (Report{}).GFLOPS() != 0 {
		t.Fatal("zero-duration report must yield 0")
	}
}

func TestExecuteShapeMismatchPanics(t *testing.T) {
	dev := smallDevice()
	e := NewExecutor(dev, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	e.Execute(1, matrix.NewDense(4, 5), matrix.NewDense(6, 7), 0, matrix.NewDense(4, 7), 0)
}

func TestExecuteOnVirtualDevicePanics(t *testing.T) {
	dev := gpu.New(gpu.Config{Virtual: true})
	e := NewExecutor(dev, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Execute on virtual device should panic")
		}
	}()
	e.Execute(1, matrix.NewDense(4, 4), matrix.NewDense(4, 4), 0, matrix.NewDense(4, 4), 0)
}

func TestEarliestOffsetsSchedule(t *testing.T) {
	dev := gpu.New(gpu.Config{Virtual: true})
	e := NewExecutor(dev, Options{Tile: 1024})
	rep := e.ExecuteVirtual(1024, 1024, 1024, 1, 10)
	if rep.Start != 10 {
		t.Fatalf("report start %v", rep.Start)
	}
	if rep.End <= 10 {
		t.Fatal("execution must proceed after the offset")
	}
}
