package hpl

import (
	"fmt"

	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/matrix"
	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

// graphSwapGBps is the host bandwidth of pivot row swaps in GB/s: pure memory
// traffic. The panel and triangular-solve codelets run at the perfmodel host
// rates.
const graphSwapGBps = 4.0

// GraphOptions configures a graph-expressed factorization.
type GraphOptions struct {
	// NB is the blocking factor; values <= 0 select a default of 64.
	NB int
	// Lookahead bounds cross-iteration overlap: panel k may start only once
	// every task of iteration k-1-Lookahead has finished. 0 reproduces the
	// bulk-synchronous right-looking loop, 1 is HPL's classic look-ahead
	// (the next panel overlaps this iteration's trailing update), and a
	// negative depth leaves the pure dataflow order unconstrained.
	Lookahead int
	// Hybrid arms the trailing-update codelet with the split CPU+GPU body:
	// upd(k,r,c) tasks may divide their rows between the device and the host
	// cores by the adaptive GSplit, the same intra-update split the
	// monolithic loop performs. The scheduler still chooses per task among
	// cpu, gpu, and hybrid by earliest predicted finish.
	Hybrid bool
	// Sched carries the scheduler knobs: rate seeds, ABFT verification,
	// fault fallback, telemetry and body parallelism.
	Sched taskgraph.Options
}

func (o GraphOptions) withDefaults() GraphOptions {
	if o.NB <= 0 {
		o.NB = 64
	}
	return o
}

// luTiles is the tile-grid geometry of one factorization.
type luTiles struct {
	n, nb, t int // order, block size, tile count
}

func (g luTiles) off(i int) int { return i * g.nb }

func (g luTiles) width(i int) int { return min(g.nb, g.n-i*g.nb) }

// BuildLUGraph expresses the whole blocked right-looking LU factorization of
// an n×n matrix as a task graph over its NB-tile grid. Per block column k
// the monolithic loop's four phases become four codelets:
//
//	lu.panel  panel(k)    — recursive panel factor of tiles (r>=k, k), pivots
//	lu.swap   swap(k,c)   — apply panel k's pivots to column block c < k
//	lu.trsm   prep(k,c)   — pivots + U12 triangular solve on block c > k
//	lu.gemm   upd(k,r,c)  — tile (r,c) -= L21(r,k)·U12(k,c), the hot DGEMM
//
// Dependencies are inferred from the declared tile accesses, which yields the
// unconstrained dataflow order; opts.Lookahead >= 0 adds barrier edges
// bounding how many panels may run ahead of the trailing updates.
//
// With a non-nil matrix the tasks carry real arithmetic bodies operating on
// views of a (and pivot writes into ipiv), decomposed so that executing the
// graph is bit-identical to the monolithic Dgetrf: the DGEMM is split only
// over rows and columns (never the summation depth), the triangular solve
// and the row swaps are column-independent. A nil matrix builds the same
// topology with no bodies — the virtual form graphtrace and the experiments
// schedule at Fig-8 problem sizes. errs, when non-nil, must have one slot
// per block column; panel bodies record singular pivots there.
func BuildLUGraph(n int, a *matrix.Dense, ipiv []int, el *element.Element, errs []error, opts GraphOptions) *taskgraph.Graph {
	opts = opts.withDefaults()
	if a != nil {
		if a.Rows != a.Cols || a.Rows != n {
			panic("hpl: BuildLUGraph requires a square n×n matrix")
		}
		if len(ipiv) < n {
			panic("hpl: ipiv too short")
		}
	}
	b := newLUBuilder(n, a, ipiv, el, errs, opts)
	for k := 0; k < b.geo.t; k++ {
		b.iterStart = append(b.iterStart, b.g.Len())
		b.addPanel(k)
		b.addSwapsAndPreps(k)
		b.addUpdates(k)
	}
	return b.g
}

// luBuilder is a whole-factorization graph under construction.
type luBuilder struct {
	g    *taskgraph.Graph
	geo  luTiles
	a    *matrix.Dense // nil builds the virtual form, with no bodies
	ipiv []int
	errs []error
	opts GraphOptions

	tiles []*taskgraph.Handle // one per matrix tile, row-major t×t
	pivs  []*taskgraph.Handle // one per panel's pivot block
	// iterStart[k] is the id of iteration k's first task: ids are creation
	// order, so iteration k is Tasks()[iterStart[k]:iterStart[k+1]].
	iterStart []int
	accs      []taskgraph.Access // scratch for column-long access lists

	// The codelets' cost functions, shared by all their tasks.
	panelCosts, gemmCosts taskgraph.Costs
	// part is the split oracle hybrid bodies consult: database_g keyed by
	// tile work decides the GPU row fraction, database_c the per-core shares
	// of the host half, starting from the element's peak ratio.
	part adaptive.Partitioner
	el   *element.Element
}

func (b *luBuilder) tile(r, c int) *taskgraph.Handle { return b.tiles[r*b.geo.t+c] }

// newLUBuilder registers the handles and makes the per-codelet cost functions.
func newLUBuilder(n int, a *matrix.Dense, ipiv []int, el *element.Element, errs []error, opts GraphOptions) *luBuilder {
	geo := luTiles{n: n, nb: opts.NB, t: (n + opts.NB - 1) / opts.NB}
	core, gpu := el.CPU.Core(0), el.GPU
	b := &luBuilder{
		g: taskgraph.New(), geo: geo, a: a, ipiv: ipiv, errs: errs, opts: opts,
		tiles: make([]*taskgraph.Handle, geo.t*geo.t),
		pivs:  make([]*taskgraph.Handle, geo.t),
		el:    el,
	}
	for r := 0; r < geo.t; r++ {
		for c := 0; c < geo.t; c++ {
			b.tiles[r*geo.t+c] = b.g.NewHandle(taskgraph.Name("t(%d,%d)", r, c),
				8*int64(geo.width(r))*int64(geo.width(c)))
		}
	}
	for k := 0; k < geo.t; k++ {
		b.pivs[k] = b.g.NewHandle(taskgraph.Name("piv(%d)", k), 8*int64(geo.width(k)))
	}
	b.panelCosts.CPUSeconds = func(t *taskgraph.Task) float64 { return t.Flops / (perfmodel.HostPanelGFLOPS * 1e9) }
	b.gemmCosts = taskgraph.Costs{
		CPUSeconds: func(t *taskgraph.Task) float64 { return core.Seconds(t.Shape[0], t.Shape[1], t.Shape[2], false) },
		GPUSeconds: func(t *taskgraph.Task) float64 {
			return gpu.Model().KernelSeconds(t.Shape[0], t.Shape[1], t.Shape[2])
		},
	}
	if opts.Hybrid {
		// Bucket splits by tile work: full NB³ update tiles land in the top
		// bucket, the narrower edge tiles in lower ones — the same shape
		// keying the monolithic loop's database_g uses for trailing updates.
		maxWork := 2 * float64(opts.NB) * float64(opts.NB) * float64(opts.NB)
		b.part = adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())
	}
	return b
}

// colAccesses declares, in the builder's scratch, the footprint of a
// whole-column operation touching rows >= the diagonal block (pivoting never
// reaches above it), followed by extra.
func (b *luBuilder) colAccesses(k, c int, mode taskgraph.AccessMode, extra ...taskgraph.Access) []taskgraph.Access {
	accs := b.accs[:0]
	for r := k; r < b.geo.t; r++ {
		accs = append(accs, taskgraph.Access{H: b.tile(r, c), Mode: mode})
	}
	b.accs = append(accs, extra...)
	return b.accs
}

// addPanel books panel(k), gated by the look-ahead depth barrier.
func (b *luBuilder) addPanel(k int) {
	a, ipiv, errs := b.a, b.ipiv, b.errs
	j, jb := b.geo.off(k), b.geo.width(k)
	mp := b.geo.n - j // panel height
	panel := taskgraph.Task{
		Name:     taskgraph.Name("panel(%d)", k),
		Codelet:  "lu.panel",
		Flops:    float64(jb) * float64(jb) * (float64(mp) - float64(jb)/3),
		Priority: 3,
		Costs:    b.panelCosts,
	}
	if a != nil {
		panel.Run = func() {
			piv := ipiv[j : j+jb]
			if err := PanelFactor(a.View(j, j, mp, jb), piv); err != nil && errs != nil {
				errs[k] = ErrSingular{Step: j + err.(ErrSingular).Step}
			}
			for i := range piv {
				piv[i] += j // rebase panel-relative pivots to absolute rows
			}
		}
	}
	t := b.g.Add(panel, b.colAccesses(k, k, taskgraph.ReadWrite,
		taskgraph.Access{H: b.pivs[k], Mode: taskgraph.Write})...)
	if b.opts.Lookahead >= 0 {
		if gate := k - 1 - b.opts.Lookahead; gate >= 0 {
			b.g.After(t, b.g.Tasks()[b.iterStart[gate]:b.iterStart[gate+1]]...)
		}
	}
}

// addSwapsAndPreps books panel k's pivots onto every other column block:
// swap(k,c) on the already-factored columns to the left, prep(k,c) — pivots
// plus the U12 triangular solve — on the right. Their costs need the panel
// and column widths, which a task does not carry, so each keeps a cost
// function of its own; there are O(t²) of them against O(t³) updates.
func (b *luBuilder) addSwapsAndPreps(k int) {
	a, ipiv, n := b.a, b.ipiv, b.geo.n
	j, jb := b.geo.off(k), b.geo.width(k)
	for c := 0; c < b.geo.t; c++ {
		if c == k {
			continue
		}
		c0, cw := b.geo.off(c), b.geo.width(c)
		swapSec := 16 * float64(jb) * float64(cw) / (graphSwapGBps * 1e9)
		pivots := taskgraph.Access{H: b.pivs[k], Mode: taskgraph.Read}
		if c < k {
			t := taskgraph.Task{
				Name:     taskgraph.Name("swap(%d,%d)", k, c),
				Codelet:  "lu.swap",
				Priority: 1,
				Costs:    taskgraph.Costs{CPUSeconds: func(*taskgraph.Task) float64 { return swapSec }},
			}
			if a != nil {
				t.Run = func() { blas.Dlaswp(a.View(0, c0, n, cw), ipiv, j, j+jb) }
			}
			b.g.Add(t, b.colAccesses(k, c, taskgraph.ReadWrite, pivots)...)
			continue
		}
		t := taskgraph.Task{
			Name:     taskgraph.Name("prep(%d,%d)", k, c),
			Codelet:  "lu.trsm",
			Flops:    float64(jb) * float64(jb) * float64(cw),
			Priority: 2,
			Costs: taskgraph.Costs{CPUSeconds: func(t *taskgraph.Task) float64 {
				return swapSec + t.Flops/(perfmodel.HostTrsmGFLOPS*1e9)
			}},
		}
		if a != nil {
			t.Run = func() {
				blas.Dlaswp(a.View(0, c0, n, cw), ipiv, j, j+jb)
				blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
					1, a.View(j, j, jb, jb), a.View(j, c0, jb, cw))
			}
		}
		b.g.Add(t, b.colAccesses(k, c, taskgraph.ReadWrite, pivots,
			taskgraph.Access{H: b.tile(k, k), Mode: taskgraph.Read})...)
	}
}

// addUpdates books iteration k's trailing update, upd(k,r,c) for every tile
// below and right of the diagonal block, column by column.
func (b *luBuilder) addUpdates(k int) {
	a, part, core, gpu := b.a, b.part, b.el.CPU.Core(0), b.el.GPU
	j, jb := b.geo.off(k), b.geo.width(k)
	for c := k + 1; c < b.geo.t; c++ {
		c0, cw := b.geo.off(c), b.geo.width(c)
		for r := k + 1; r < b.geo.t; r++ {
			r0, rh := b.geo.off(r), b.geo.width(r)
			t := taskgraph.Task{
				Name:    taskgraph.Name("upd(%d,%d,%d)", k, r, c),
				Codelet: "lu.gemm",
				Flops:   2 * float64(rh) * float64(cw) * float64(jb),
				Shape:   [3]int{rh, cw, jb},
				Costs:   b.gemmCosts,
			}
			if part != nil {
				flops := t.Flops
				t.Hybrid = &taskgraph.Hybrid{
					Rows:       rh,
					Split:      func() float64 { return part.GSplit(flops) },
					GPUSeconds: func(rows int) float64 { return gpu.Model().KernelSeconds(rows, cw, jb) },
					CPUSeconds: func(rows int) float64 { return core.Seconds(rows, cw, jb, false) },
					CSplits:    part.CSplits,
					Observe: func(gsplit, tg, tc float64, coreWorks, coreTimes []float64) {
						part.Observe(adaptive.Observation{Work: flops, GSplit: gsplit, TG: tg, TC: tc,
							CoreWorks: coreWorks, CoreTimes: coreTimes})
					},
				}
			}
			if a != nil {
				t.Run = func() {
					blas.Dgemm(blas.NoTrans, blas.NoTrans,
						-1, a.View(r0, j, rh, jb), a.View(j, c0, jb, cw),
						1, a.View(r0, c0, rh, cw))
				}
			}
			b.g.Add(t,
				taskgraph.Access{H: b.tile(r, k), Mode: taskgraph.Read},
				taskgraph.Access{H: b.tile(k, c), Mode: taskgraph.Read},
				taskgraph.Access{H: b.tile(r, c), Mode: taskgraph.ReadWrite})
		}
	}
}

// GraphRateSeeds returns perfmodel-derived cold-start priors for the LU
// codelets at blocking nb: the host rates of the panel and triangular-solve
// codelets, and the CPU, GPU, and hybrid rates of the trailing-update DGEMM
// at the full-tile shape. Each seed carries the weight of one observation,
// so the first placements of a cold run rank variants by the model instead
// of swinging on whatever the first jittered measurement happened to be.
func GraphRateSeeds(el *element.Element, nb int) []taskgraph.RateSeed {
	core := el.CPU.Core(0)
	cpuRate := core.Model.Rate(nb, nb, nb, false) * 1e9
	gpuRate := el.GPU.Model().Rate(nb, nb, nb) * 1e9
	// The hybrid body runs the device half and all host cores concurrently;
	// a balanced split joins at roughly the sum of the sides' rates.
	hybRate := gpuRate + float64(el.CPU.NumCores())*cpuRate
	return []taskgraph.RateSeed{
		{Codelet: "lu.panel", Class: taskgraph.ClassCPU, Rate: perfmodel.HostPanelGFLOPS * 1e9},
		{Codelet: "lu.trsm", Class: taskgraph.ClassCPU, Rate: perfmodel.HostTrsmGFLOPS * 1e9},
		{Codelet: "lu.gemm", Class: taskgraph.ClassCPU, Rate: cpuRate},
		{Codelet: "lu.gemm", Class: taskgraph.ClassGPU, Rate: gpuRate},
		{Codelet: "lu.gemm", Class: taskgraph.ClassHyb, Rate: hybRate},
	}
}

// GraphDgetrf factors a in place through the task graph runtime: the blocked
// factorization is expressed as a dataflow graph over a's NB-tile grid,
// placed tile by tile on the element's CPU cores and GPU by the affinity
// scheduler, and the host bodies then execute in dependency order. The
// numerical result — factors, pivots, and any singularity verdict — is
// bit-identical to Dgetrf with the same NB, at any look-ahead depth and any
// body parallelism, because the decomposition never splits a DGEMM's
// summation depth and every other codelet is column-independent.
func GraphDgetrf(a *matrix.Dense, ipiv []int, el *element.Element, opts GraphOptions) (taskgraph.Report, error) {
	opts = opts.withDefaults()
	if a.Rows != a.Cols {
		panic("hpl: GraphDgetrf requires a square matrix")
	}
	n := a.Rows
	if len(ipiv) < n {
		panic("hpl: ipiv too short")
	}
	nblocks := (n + opts.NB - 1) / opts.NB
	errs := make([]error, nblocks)
	g := BuildLUGraph(n, a, ipiv, el, errs, opts)
	// Model-derived seeds follow any caller-provided ones; Seed is
	// first-wins, so explicit priors (or a restored checkpoint's rates)
	// still take precedence.
	opts.Sched.RateSeeds = append(opts.Sched.RateSeeds, GraphRateSeeds(el, opts.NB)...)
	sch := taskgraph.NewScheduler(el, opts.Sched)
	rep, err := sch.Run(g, sim.Time(0))
	if err != nil {
		return rep, err
	}
	if rep.Stalled {
		return rep, fmt.Errorf("hpl: graph factorization stalled waiting for the GPU (no CPU fallback)")
	}
	for _, e := range errs {
		if e != nil {
			return rep, e
		}
	}
	return rep, nil
}

// GraphRun executes the full Linpack workflow — generate, factor, solve,
// verify — with the factorization running through the task graph runtime.
// The Result matches Run(n, seed, Options{NB: opts.NB}) bit for bit; the
// Report adds the scheduling view (placement counts, transfer bytes,
// simulated makespan).
func GraphRun(n int, seed uint64, el *element.Element, opts GraphOptions) (Result, taskgraph.Report, error) {
	opts = opts.withDefaults()
	a, b := Generate(n, seed)
	lu := a.Clone()
	ipiv := make([]int, n)
	rep, err := GraphDgetrf(lu, ipiv, el, opts)
	if err != nil {
		return Result{}, rep, err
	}
	x := append([]float64(nil), b...)
	SolveFactored(lu, ipiv, x)
	res := ScaledResidual(a, x, b)
	r := Result{
		N:        n,
		NB:       opts.NB,
		Flops:    LinpackFlops(n),
		Residual: res,
		Passed:   res < ResidualThreshold,
		X:        x,
	}
	if !r.Passed {
		return r, rep, fmt.Errorf("hpl: residual %g exceeds threshold %g", res, ResidualThreshold)
	}
	return r, rep, nil
}
