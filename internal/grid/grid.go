// Package grid implements the P x Q process grid and block-cyclic
// distribution maps HPL uses to spread an N x N matrix over ranks. The
// distributed solver and the cluster-scale performance model both run on
// these grids, from 1 x Q up to the paper's 64 x 80 on TianHe-1.
package grid

import "fmt"

// Grid is a P x Q arrangement of ranks in row-major order: rank = p*Q + q.
type Grid struct {
	P, Q int
}

// New validates and returns a grid.
func New(p, q int) Grid {
	if p <= 0 || q <= 0 {
		panic(fmt.Sprintf("grid: invalid %dx%d grid", p, q))
	}
	return Grid{P: p, Q: q}
}

// Size returns the number of ranks.
func (g Grid) Size() int { return g.P * g.Q }

// Coords returns the (row, col) position of a rank.
func (g Grid) Coords(rank int) (p, q int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("grid: rank %d outside %dx%d", rank, g.P, g.Q))
	}
	return rank / g.Q, rank % g.Q
}

// Rank returns the rank at position (p, q).
func (g Grid) Rank(p, q int) int {
	if p < 0 || p >= g.P || q < 0 || q >= g.Q {
		panic(fmt.Sprintf("grid: coords (%d,%d) outside %dx%d", p, q, g.P, g.Q))
	}
	return p*g.Q + q
}

// Squarish returns the most square P x Q factorization of size with P <= Q,
// the usual HPL choice for a given process count.
func Squarish(size int) Grid {
	if size <= 0 {
		panic("grid: non-positive size")
	}
	best := Grid{P: 1, Q: size}
	for p := 1; p*p <= size; p++ {
		if size%p == 0 {
			best = Grid{P: p, Q: size / p}
		}
	}
	return best
}

// CyclicOwner returns which of count ranks owns global block index b under
// 1D block-cyclic distribution.
func CyclicOwner(b, count int) int { return b % count }

// CyclicLocalIndex returns the local position of global block b on its
// owner.
func CyclicLocalIndex(b, count int) int { return b / count }

// CyclicBlocks returns how many of nblocks global blocks land on the rank at
// position idx among count ranks.
func CyclicBlocks(nblocks, idx, count int) int {
	full := nblocks / count
	if idx < nblocks%count {
		full++
	}
	return full
}
