// Package tianhe is the public facade of this reproduction of "Adaptive
// Optimization for Petascale Heterogeneous CPU/GPU Computing" (Yang et al.,
// IEEE CLUSTER 2010): the Linpack implementation for the TianHe-1 CPU+GPU
// supercomputer, built around two techniques — two-level adaptive task
// mapping between the GPU and the CPU cores of each compute element, and
// software pipelining that overlaps CPU-GPU transfers with kernel execution.
//
// The hardware is simulated (see DESIGN.md for the substitution table): a
// compute element pairs a quad-core Xeon model with an RV770 GPU model whose
// kernels really compute (the Go BLAS of internal/blas) while their durations are booked in
// deterministic virtual time. Small problems run end-to-end for real —
// factorizations are residual-checked — and the paper's full-machine
// configurations are reproduced by a performance simulation with the
// identical control structure.
//
// Typical use:
//
//	el := tianhe.NewElement(tianhe.ElementConfig{Seed: 1})
//	run := tianhe.NewRunner(el, tianhe.ACMLGBoth)
//	rep := run.Gemm(1, a, b, 1, c, 0) // real arithmetic, virtual timing
//
// The cmd directory regenerates every table and figure of the paper's
// evaluation; EXPERIMENTS.md records paper-versus-measured values.
package tianhe

import (
	"tianhe/internal/adaptive"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/linpacksim"
	"tianhe/internal/matrix"
)

// Variant names one of the five configurations the paper evaluates.
type Variant = element.Variant

// The five evaluated configurations (Section VI.B).
const (
	// CPUOnly runs the host math library on all four cores.
	CPUOnly = element.CPUOnly
	// ACMLG offloads whole DGEMMs to the GPU the way the vendor library
	// does: strict input -> execute -> output, no CPU participation.
	ACMLG = element.ACMLG
	// ACMLGAdaptive adds the two-level adaptive CPU/GPU split (Section IV).
	ACMLGAdaptive = element.ACMLGAdaptive
	// ACMLGPipe adds the software pipeline (Section V).
	ACMLGPipe = element.ACMLGPipe
	// ACMLGBoth applies both techniques — the paper's configuration.
	ACMLGBoth = element.ACMLGBoth
)

// Variants lists the configurations in the paper's order.
var Variants = element.Variants

// ElementConfig configures one compute element; see element.Config.
type ElementConfig = element.Config

// Element is one CPU+GPU compute unit of the machine.
type Element = element.Element

// NewElement assembles a compute element.
func NewElement(cfg ElementConfig) *Element { return element.New(cfg) }

// Runner executes hybrid DGEMMs on an element under one configuration.
type Runner = hybrid.Runner

// GemmReport describes one hybrid DGEMM execution.
type GemmReport = hybrid.Report

// NewRunner builds a runner for the given variant. Adaptive variants
// receive a fresh two-level partitioner sized for workloads up to
// maxWorkFlops; pass 0 for a general-purpose default.
func NewRunner(el *Element, v Variant) *Runner {
	return NewRunnerWithCapacity(el, v, 0)
}

// NewRunnerWithCapacity is NewRunner with an explicit database_g workload
// range in flops (the bucket span of Section IV.B).
func NewRunnerWithCapacity(el *Element, v Variant, maxWorkFlops float64) *Runner {
	var part adaptive.Partitioner
	if v.Adaptive() {
		if maxWorkFlops <= 0 {
			maxWorkFlops = 1e14
		}
		part = adaptive.NewAdaptive(64, maxWorkFlops, el.InitialGSplit(), el.CPU.NumCores())
	}
	return hybrid.New(el, v, part)
}

// Matrix is the column-major dense matrix type of the library.
type Matrix = matrix.Dense

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.NewDense(rows, cols) }

// LinpackOptions configures a real (residual-checked) Linpack run.
type LinpackOptions = hpl.Options

// LinpackResult reports a real Linpack run.
type LinpackResult = hpl.Result

// RunLinpack executes the full benchmark workflow at order n — generate,
// factor, solve, verify — computing everything for real. Sizes beyond a few
// thousand take real CPU time; the paper-scale figures use SimulateLinpack.
func RunLinpack(n int, seed uint64, opts LinpackOptions) (LinpackResult, error) {
	return hpl.Run(n, seed, opts)
}

// RefineSolution improves a computed Linpack solution in place by classical
// iterative refinement using the existing LU factors, returning the steps
// taken and the final residual infinity-norm.
func RefineSolution(a, lu *Matrix, ipiv []int, b, x []float64, maxIter int) (int, float64) {
	return hpl.IterativeRefine(a, lu, ipiv, b, x, maxIter)
}

// EstimateRcond estimates the reciprocal condition number from LU factors
// with Hager's one-norm estimator.
func EstimateRcond(lu *Matrix, ipiv []int, anorm float64) float64 {
	return hpl.EstimateRcond(lu, ipiv, anorm)
}

// SimulateConfig configures a single-element Linpack timing simulation.
type SimulateConfig = linpacksim.Config

// SimulateResult reports a simulated run.
type SimulateResult = linpacksim.Result

// SimulateLinpack reproduces the timing of one Linpack run on a single
// compute element at any problem size (Fig. 9's N = 46000 included) without
// performing the arithmetic.
func SimulateLinpack(cfg SimulateConfig) SimulateResult { return linpacksim.Run(cfg) }

// DistributedConfig configures a real distributed solve over the in-process
// MPI substrate.
type DistributedConfig = cluster.DistConfig

// DistributedResult reports a distributed solve.
type DistributedResult = cluster.DistResult

// SolveDistributed factors and solves a system across several compute
// elements for real, verifying the residual.
func SolveDistributed(cfg DistributedConfig) (DistributedResult, error) {
	return cluster.SolveDistributed(cfg)
}

// Distributed2DConfig configures a real solve on a P x Q block-cyclic grid
// (HPL's own layout), with optional depth-1 look-ahead.
type Distributed2DConfig = cluster.Dist2DConfig

// SolveDistributed2D factors and solves on the 2D grid with collaborative
// distributed pivoting, real arithmetic and virtual timing.
func SolveDistributed2D(cfg Distributed2DConfig) (DistributedResult, error) {
	return cluster.SolveDistributed2D(cfg)
}

// Policy selects split management in the cluster-scale simulation.
type Policy = cluster.Policy

// The two policies Figure 11 compares.
const (
	// PolicyAdaptive refreshes splits every iteration from measured rates.
	PolicyAdaptive = cluster.PolicyAdaptive
	// PolicyTrained freezes splits measured in an offline training phase.
	PolicyTrained = cluster.PolicyTrained
)

// ScaleConfig configures a cluster-scale performance simulation.
type ScaleConfig = cluster.ScaleConfig

// ScaleResult reports a cluster-scale simulation.
type ScaleResult = cluster.ScaleResult

// SimulateScale reproduces the paper's multi-cabinet runs (up to 5120
// elements, N = 2,240,000) with the per-iteration HPL control structure.
func SimulateScale(cfg ScaleConfig) ScaleResult { return cluster.SimulateScale(cfg) }
