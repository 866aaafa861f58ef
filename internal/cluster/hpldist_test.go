package cluster

import (
	"math"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

func TestSolveDistributedSingleRank(t *testing.T) {
	res, err := SolveDistributed(DistConfig{
		N: 192, NB: 32, Ranks: 1, Seed: 1, Variant: element.ACMLGBoth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("residual %v", res.Residual)
	}
}

func TestSolveDistributedMatchesSerial(t *testing.T) {
	cfg := DistConfig{N: 256, NB: 32, Ranks: 4, Seed: 5, Variant: element.ACMLGBoth}
	res, err := SolveDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The serial solver on the same generated system must agree closely.
	a, b := hpl.Generate(cfg.N, cfg.Seed)
	want, err := hpl.Solve(a, b, hpl.Options{NB: cfg.NB})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.VecMaxDiff(res.X, want); d > 1e-8 {
		t.Fatalf("distributed vs serial solution differ by %v", d)
	}
}

func TestSolveDistributedVariousShapes(t *testing.T) {
	for _, c := range []struct {
		n, nb, ranks int
	}{
		{128, 32, 2}, {192, 32, 3}, {256, 64, 2}, {320, 32, 5}, {256, 32, 8},
	} {
		res, err := SolveDistributed(DistConfig{
			N: c.n, NB: c.nb, Ranks: c.ranks, Seed: uint64(c.n + c.ranks),
			Variant: element.ACMLGBoth,
		})
		if err != nil {
			t.Fatalf("N=%d NB=%d ranks=%d: %v", c.n, c.nb, c.ranks, err)
		}
		if res.Residual >= hpl.ResidualThreshold {
			t.Fatalf("N=%d ranks=%d residual %v", c.n, c.ranks, res.Residual)
		}
	}
}

func TestSolveDistributedAllVariants(t *testing.T) {
	for _, v := range element.Variants {
		res, err := SolveDistributed(DistConfig{
			N: 128, NB: 32, Ranks: 2, Seed: 9, Variant: v,
		})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Passed {
			t.Fatalf("%v: residual %v", v, res.Residual)
		}
	}
}

func TestSolveDistributedDeterministic(t *testing.T) {
	cfg := DistConfig{N: 128, NB: 32, Ranks: 4, Seed: 3, Variant: element.ACMLGPipe}
	r1, err1 := SolveDistributed(cfg)
	r2, err2 := SolveDistributed(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if matrix.VecMaxDiff(r1.X, r2.X) != 0 {
		t.Fatal("same seed must give identical solutions")
	}
	if r1.Seconds != r2.Seconds {
		t.Fatalf("virtual makespans differ: %v vs %v", r1.Seconds, r2.Seconds)
	}
}

func TestSolveDistributedRejectsRaggedN(t *testing.T) {
	if _, err := SolveDistributed(DistConfig{N: 100, NB: 32, Ranks: 2, Variant: element.ACMLG}); err == nil {
		t.Fatal("N not a multiple of NB must be rejected")
	}
}

func TestSolveDistributedSmallGPU(t *testing.T) {
	// A shrunken device forces multi-task pipelined plans inside the
	// distributed updates.
	res, err := SolveDistributed(DistConfig{
		N: 256, NB: 64, Ranks: 2, Seed: 11, Variant: element.ACMLGBoth,
		GPUMem: 2 << 20, GPUTexture: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("residual %v", res.Residual)
	}
}

// Every public solver must answer a shape no block-cyclic layout can hold
// with an error, never a divide-by-zero panic.
func TestSolversRejectBadShapes(t *testing.T) {
	solvers := map[string]func(n, nb int) error{
		"SolveDistributed": func(n, nb int) error {
			_, err := SolveDistributed(DistConfig{N: n, NB: nb, Ranks: 2, Variant: element.ACMLG})
			return err
		},
		"SolveDistributed2D": func(n, nb int) error {
			_, err := SolveDistributed2D(Dist2DConfig{N: n, NB: nb, P: 2, Q: 2, Variant: element.ACMLG})
			return err
		},
		"SolveElastic": func(n, nb int) error {
			_, err := SolveElastic(ElasticConfig{N: n, NB: nb, Ranks: 2})
			return err
		},
	}
	for _, c := range []struct{ n, nb int }{
		{256, 0}, {256, -32}, {0, 32}, {-64, 32}, {100, 32},
	} {
		for name, solve := range solvers {
			if err := solve(c.n, c.nb); err == nil {
				t.Errorf("%s accepted N=%d NB=%d", name, c.n, c.nb)
			}
		}
	}
}

// SolveDistributed is the 1 x Ranks grid of the 2-D solver, bit for bit.
func TestSolveDistributedIs1xQGrid(t *testing.T) {
	r1, err := SolveDistributed(DistConfig{N: 192, NB: 32, Ranks: 3, Seed: 8, Variant: element.ACMLGBoth})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveDistributed2D(Dist2DConfig{N: 192, NB: 32, P: 1, Q: 3, Seed: 8, Variant: element.ACMLGBoth})
	if err != nil {
		t.Fatal(err)
	}
	if matrix.VecMaxDiff(r1.X, r2.X) != 0 || r1.Seconds != r2.Seconds {
		t.Fatalf("1-D and 1x3 runs differ: makespans %v vs %v", r1.Seconds, r2.Seconds)
	}
}

// checkPanelRoundTrip packs an m x nb window of a matrix with leading
// dimension m+extra and checks unpackPanel returns the same pivots and
// elements as a tight view of the packed buffer. It packs twice: into no
// storage, and into a longer buffer full of NaN, which the encoding must
// reuse without a stale value showing.
func checkPanelRoundTrip(t *testing.T, m, nb, extra int, seed uint64) {
	t.Helper()
	backing := matrix.NewDense(m+extra, nb)
	backing.FillRandom(sim.NewRNG(seed))
	src := backing.View(extra, 0, m, nb)
	ipiv := make([]int, nb)
	for i := range ipiv {
		ipiv[i] = (i*7 + int(seed%13)) % (m + 1)
	}

	fresh := packPanel(nil, ipiv, src)
	stale := make([]float64, nb+m*nb+extra+1)
	for i := range stale {
		stale[i] = math.NaN()
	}
	buf := packPanel(stale, ipiv, src)
	if len(buf) != nb+m*nb || len(fresh) != len(buf) {
		t.Fatalf("packed %dx%d panel is %d values (%d into no storage), want %d", m, nb, len(buf), len(fresh), nb+m*nb)
	}
	if &buf[0] != &stale[0] {
		t.Fatal("packPanel allocated although its destination had room")
	}
	for i := range buf {
		if math.Float64bits(buf[i]) != math.Float64bits(fresh[i]) {
			t.Fatalf("value %d packed into reused storage is %v, into fresh storage %v", i, buf[i], fresh[i])
		}
	}
	piece, got := unpackPanel(buf, m, nb)
	for i := range ipiv {
		if got[i] != ipiv[i] {
			t.Fatalf("pivot %d: got %d, want %d", i, got[i], ipiv[i])
		}
	}
	if piece.Rows != m || piece.Cols != nb || !piece.Equal(src) {
		t.Fatalf("%dx%d piece (stride %d) does not match its %dx%d source", piece.Rows, piece.Cols, piece.Stride, m, nb)
	}
	if m > 0 {
		buf[nb] = -buf[nb] - 1
		if piece.At(0, 0) != buf[nb] {
			t.Fatal("unpacked piece must view the payload, not copy it")
		}
	}
}

func TestPanelCodecRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name         string
		m, nb, extra int
	}{
		{"diagonal block only (m = nb)", 8, 8, 0},
		{"tall panel (m > nb)", 40, 8, 0},
		{"source stride exceeds its rows", 24, 8, 17},
		{"rank with no rows left", 0, 8, 5},
	} {
		t.Run(c.name, func(t *testing.T) { checkPanelRoundTrip(t, c.m, c.nb, c.extra, 3) })
	}
}

func TestMoreRanksNotSlower(t *testing.T) {
	// Weak sanity: with enough work, 4 ranks should beat 1 rank in virtual
	// makespan despite communication.
	t1, err1 := SolveDistributed(DistConfig{N: 384, NB: 32, Ranks: 1, Seed: 2, Variant: element.CPUOnly})
	t4, err4 := SolveDistributed(DistConfig{N: 384, NB: 32, Ranks: 4, Seed: 2, Variant: element.CPUOnly})
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if t4.Seconds >= t1.Seconds {
		t.Fatalf("4 ranks (%v s) should beat 1 rank (%v s)", t4.Seconds, t1.Seconds)
	}
}
