package cluster

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// TestRandomizedDistributedConfigs throws a batch of randomized problem
// sizes, block sizes, grids and variants at all three distributed solvers
// and checks every solution against the serial solver.
func TestRandomizedDistributedConfigs(t *testing.T) {
	r := sim.NewRNG(777)
	for trial := 0; trial < 8; trial++ {
		nb := []int{16, 32, 48}[r.Intn(3)]
		blocks := r.Intn(6) + 2
		n := nb * blocks
		variant := element.Variants[r.Intn(len(element.Variants))]
		seed := r.Uint64() % 10000

		a, b := hpl.Generate(n, seed)
		want, err := hpl.Solve(a, b, hpl.Options{NB: nb})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}

		ranks := r.Intn(4) + 1
		r1, err := SolveDistributed(DistConfig{
			N: n, NB: nb, Ranks: ranks, Seed: seed, Variant: variant,
		})
		if err != nil {
			t.Fatalf("trial %d 1D (n=%d nb=%d ranks=%d %v): %v", trial, n, nb, ranks, variant, err)
		}
		if d := matrix.VecMaxDiff(r1.X, want); d > 1e-7 {
			t.Fatalf("trial %d 1D solution off by %v", trial, d)
		}

		p := r.Intn(3) + 1
		q := r.Intn(3) + 1
		la := r.Intn(2) == 1
		r2, err := SolveDistributed2D(Dist2DConfig{
			N: n, NB: nb, P: p, Q: q, Seed: seed, Variant: variant, Lookahead: la,
		})
		if err != nil {
			t.Fatalf("trial %d 2D (n=%d nb=%d %dx%d %v lookahead=%v): %v",
				trial, n, nb, p, q, variant, la, err)
		}
		if d := matrix.VecMaxDiff(r2.X, want); d > 1e-7 {
			t.Fatalf("trial %d 2D solution off by %v", trial, d)
		}

		eranks := 2 + trial%3
		re, err := SolveElastic(ElasticConfig{N: n, NB: nb, Ranks: eranks, Seed: seed})
		if err != nil {
			t.Fatalf("trial %d elastic (n=%d nb=%d ranks=%d): %v", trial, n, nb, eranks, err)
		}
		if d := matrix.VecMaxDiff(re.X, want); d > 1e-7 {
			t.Fatalf("trial %d elastic solution off by %v", trial, d)
		}
	}
}

// FuzzPanelCodec round-trips panels of arbitrary shape, source stride and
// content through the one codec both solvers broadcast with.
func FuzzPanelCodec(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(0), uint64(1))
	f.Add(uint16(40), uint16(8), uint16(0), uint64(2))
	f.Add(uint16(24), uint16(8), uint16(17), uint64(3))
	f.Add(uint16(0), uint16(4), uint16(5), uint64(4))
	f.Fuzz(func(t *testing.T, m, nb, extra uint16, seed uint64) {
		checkPanelRoundTrip(t, int(m%97), 1+int(nb%16), int(extra%32), seed)
	})
}
