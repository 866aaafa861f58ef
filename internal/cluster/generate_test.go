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
// b), and every block-column an elastic rank owns under a shrunk layout.
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
			st := newState2d(c, cfg, b, nil)
			for bi := st.p; bi < st.nRowBlocks; bi += cfg.P {
				for bj := st.q; bj < st.nColBlocks; bj += cfg.Q {
					got := st.local.View(st.localRow(bi*nb), st.lcol[bj], nb, nb)
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
	// An elastic rank holds its columns whole, in ascending global order,
	// under any ownership table: here a survivors-only one.
	live := []int{0, 2, 3}
	ecfg := ElasticConfig{N: n, NB: nb, Ranks: 4, Seed: seed, StartLive: live, StartOwners: rcv.Cyclic(n/nb+1, live).Owners}
	cfg := Dist2DConfig{N: n, NB: nb, P: 1, Q: 4, Seed: seed, Variant: element.ACMLGBoth}
	mpi.NewWorld(mpi.Config{Size: 4}).Run(func(c *mpi.Comm) {
		if c.Rank() == 1 {
			return
		}
		st := newState2d(c, cfg, b, &ecfg)
		for bj, o := range ecfg.StartOwners {
			held := st.lcol[bj+1] > st.lcol[bj]
			if held != (o == c.Rank()) {
				fail(fmt.Errorf("elastic rank %d: holds column %d = %v, owner %d", c.Rank(), bj, held, o))
				continue
			}
			if !held {
				continue
			}
			want := matrix.NewDense(n, nb)
			if bj < n/nb {
				want = a.View(0, bj*nb, n, nb)
			} else {
				copy(want.Col(0), b)
			}
			if err := sameBlock(st.local.View(0, st.lcol[bj], n, nb), want); err != nil {
				fail(fmt.Errorf("elastic rank %d column %d: %v", c.Rank(), bj, err))
			}
		}
	})
	for _, err := range errs {
		t.Error(err)
	}
}
