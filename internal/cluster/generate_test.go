package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	rcv "tianhe/internal/recover"
)

// sameBlock reports the first element where got and want differ in bits.
func sameBlock(got, want *matrix.Dense) error {
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("element (%d,%d) = %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// TestRanksGenerateOwnedBlocks: each rank generates exactly what it owns,
// equal bit for bit to the matching view of hpl.Generate — every local
// block of the 2-D solver on 2x2 and 1x4 grids (and the augmented column's
// b), and every block-column an elastic rank owns.
func TestRanksGenerateOwnedBlocks(t *testing.T) {
	const n, nb, seed = 768, 64, 2009
	a, b := hpl.Generate(n, seed)
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for _, g := range [][2]int{{2, 2}, {1, 4}} {
		cfg := Dist2DConfig{N: n, NB: nb, P: g[0], Q: g[1], Seed: seed, Variant: element.ACMLGBoth}
		mpi.NewWorld(mpi.Config{Size: g[0] * g[1]}).Run(func(c *mpi.Comm) {
			st := newState2d(c, cfg, hpl.RHS(n, seed))
			for bi := st.p; bi < st.nRowBlocks; bi += cfg.P {
				for bj := st.q; bj < st.nColBlocks; bj += cfg.Q {
					got := st.local.View(st.localRow(bi*nb), st.localColOfBlock(bj), nb, nb)
					want := matrix.NewDense(nb, nb)
					if bj < st.nRowBlocks {
						want = a.View(bi*nb, bj*nb, nb, nb)
					} else {
						copy(want.Col(0), b[bi*nb:])
					}
					if err := sameBlock(got, want); err != nil {
						fail(fmt.Errorf("%dx%d rank %d block (%d,%d): %v", cfg.P, cfg.Q, c.Rank(), bi, bj, err))
					}
				}
			}
		})
	}
	cfg := ElasticConfig{N: n, NB: nb, Ranks: 4, Seed: seed, StartLive: rcv.NewMembership(4).Live}
	cfg.StartOwners = rcv.Cyclic(n/nb, cfg.StartLive).Owners
	mpi.NewWorld(mpi.Config{Size: cfg.Ranks}).Run(func(c *mpi.Comm) {
		st := newElasticRank(c, cfg, n/nb, hpl.RHS(n, seed))
		for bj, o := range cfg.StartOwners {
			col := st.cols[bj]
			if held := col != nil; held != (o == c.Rank()) {
				fail(fmt.Errorf("elastic rank %d: holds column %d = %v, owner %d", c.Rank(), bj, held, o))
				continue
			}
			if col != nil {
				if err := sameBlock(col, a.View(0, bj*nb, n, nb)); err != nil {
					fail(fmt.Errorf("elastic rank %d column %d: %v", c.Rank(), bj, err))
				}
			}
		}
	})
	for _, err := range errs {
		t.Error(err)
	}
}
