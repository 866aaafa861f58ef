// Package cluster provides the multi-element Linpack machinery: a real
// distributed LU solver running over the in-process MPI substrate with one
// hybrid compute element per rank (verifiable end-to-end at small scale),
// and the cluster-scale performance simulator that regenerates the paper's
// multi-node figures (Figs. 11-13) at sizes no real execution could reach.
package cluster

import (
	"fmt"
	"slices"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/sim"
)

// DistConfig describes a real distributed solve on a 1 x Q column
// block-cyclic layout: rank q owns every global block-column b with
// b % Q == q. N must be a multiple of NB.
type DistConfig struct {
	N, NB int
	Ranks int
	Seed  uint64
	// Variant selects each rank's compute-element configuration.
	Variant element.Variant
	// GPUMem and GPUTexture shrink the per-rank simulated device so small
	// test problems still exercise multi-task plans; zero keeps defaults.
	GPUMem     int64
	GPUTexture int
}

// DistResult reports a distributed solve.
type DistResult struct {
	X        []float64
	Residual float64
	Passed   bool
	// Seconds is the parallel virtual makespan across ranks.
	Seconds sim.Time
	GFLOPS  float64
}

// SolveDistributed factors and solves a dense system across cfg.Ranks
// processes, each backed by its own compute element, and verifies the
// residual against the original matrix: the 1 x Ranks grid of
// SolveDistributed2D. Everything computes for real; all times are virtual.
func SolveDistributed(cfg DistConfig) (DistResult, error) {
	return SolveDistributed2D(Dist2DConfig{
		N: cfg.N, NB: cfg.NB, P: 1, Q: cfg.Ranks, Seed: cfg.Seed,
		Variant: cfg.Variant, GPUMem: cfg.GPUMem, GPUTexture: cfg.GPUTexture,
	})
}

// checkShape rejects the problem shapes no block-cyclic layout can hold.
func checkShape(n, nb int) error {
	if n <= 0 || nb <= 0 || n%nb != 0 {
		return fmt.Errorf("cluster: N=%d NB=%d: both must be positive and N a multiple of NB", n, nb)
	}
	return nil
}

// advance charges flops of host-side work at the given rate to a rank's
// clock (bytes at GB/s book the same way).
func advance(c *mpi.Comm, flops, gflops float64) {
	c.Advance(flops / (gflops * 1e9))
}

// packPanel encodes a factored panel piece and its pivots for broadcast as
// [ipiv | piece], the piece column-major with a tight leading dimension. The
// encoding reuses dst's storage, grown when it is too short.
func packPanel(dst []float64, ipiv []int, piece *matrix.Dense) []float64 {
	buf := reuse(dst, len(ipiv)+piece.Rows*piece.Cols)
	for i, v := range ipiv {
		buf[i] = float64(v)
	}
	for j := 0; j < piece.Cols; j++ {
		copy(buf[len(ipiv)+j*piece.Rows:], piece.Col(j))
	}
	return buf
}

// reuse returns buf resized to n values, allocating only when it is too
// short; the values are whatever buf held.
func reuse(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// unpackPanel is the inverse of packPanel. The piece views buf instead of
// copying it: the root packed buf into its own scratch and every receiver
// owns the payload mpi.Send copied for it, so nobody else writes the storage
// while the piece is in use.
func unpackPanel(buf []float64, rows, nb int) (*matrix.Dense, []int) {
	ipiv := make([]int, nb)
	for i := range ipiv {
		ipiv[i] = int(buf[i])
	}
	return matrix.FromColMajor(rows, nb, max(rows, 1), buf[nb:]), ipiv
}

// finishSolve is the tail every real solve shares: the ranks that returned a
// solution (xs[r] is nil for the dead and the never-started) must agree bit
// for bit, and that solution must pass the HPL residual check against the
// original system: b and the order-n test matrix of seed, regenerated.
func finishSolve(n int, seed uint64, b []float64, xs [][]float64, end sim.Time) (DistResult, error) {
	var x []float64
	for _, other := range xs {
		switch {
		case other == nil:
		case x == nil:
			x = other
		case matrix.VecMaxDiff(x, other) != 0:
			return DistResult{}, fmt.Errorf("cluster: ranks disagree on the solution")
		}
	}
	res := DistResult{X: x, Seconds: end}
	res.Residual = hpl.GeneratedResidual(n, seed, x, b)
	res.Passed = res.Residual < hpl.ResidualThreshold
	res.GFLOPS = hpl.LinpackFlops(n) / float64(end) / 1e9
	if !res.Passed {
		return res, fmt.Errorf("cluster: residual %g exceeds threshold", res.Residual)
	}
	return res, nil
}
