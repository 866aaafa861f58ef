package hpl

import (
	"fmt"
	"strconv"

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
	geo := luTiles{n: n, nb: opts.NB, t: (n + opts.NB - 1) / opts.NB}
	g := taskgraph.New()

	// One handle per matrix tile plus one per panel's pivot block.
	tiles := make([][]*taskgraph.Handle, geo.t)
	pivs := make([]*taskgraph.Handle, geo.t)
	for r := 0; r < geo.t; r++ {
		tiles[r] = make([]*taskgraph.Handle, geo.t)
		for c := 0; c < geo.t; c++ {
			tiles[r][c] = g.NewHandle(indexed("t", r, c),
				8*int64(geo.width(r))*int64(geo.width(c)))
		}
	}
	for k := 0; k < geo.t; k++ {
		pivs[k] = g.NewHandle(indexed("piv", k), 8*int64(geo.width(k)))
	}

	// colAccesses declares the footprint of a whole-column operation touching
	// rows >= the diagonal block (pivoting never reaches above it).
	colAccesses := func(k, c int, mode taskgraph.AccessMode) []taskgraph.Access {
		accs := make([]taskgraph.Access, 0, geo.t-k+1)
		for r := k; r < geo.t; r++ {
			accs = append(accs, taskgraph.Access{H: tiles[r][c], Mode: mode})
		}
		return accs
	}

	core := el.CPU.Core(0)
	gpu := el.GPU
	// part is the split oracle hybrid bodies consult: database_g keyed by
	// tile work decides the GPU row fraction, database_c the per-core shares
	// of the host half, starting from the element's peak ratio.
	var part adaptive.Partitioner
	if opts.Hybrid {
		// Bucket splits by tile work: full NB³ update tiles land in the top
		// bucket, the narrower edge tiles in lower ones — the same shape
		// keying the monolithic loop's database_g uses for trailing updates.
		maxWork := 2 * float64(opts.NB) * float64(opts.NB) * float64(opts.NB)
		part = adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())
	}
	var iter [][]*taskgraph.Task // all tasks of iteration k, for depth barriers
	for k := 0; k < geo.t; k++ {
		k := k
		j, jb := geo.off(k), geo.width(k)
		mp := n - j // panel height
		var tasks []*taskgraph.Task

		panelFlops := float64(jb) * float64(jb) * (float64(mp) - float64(jb)/3)
		panel := &taskgraph.Task{
			Name:     indexed("panel", k),
			Codelet:  "lu.panel",
			Flops:    panelFlops,
			Priority: 3,
			Costs:    taskgraph.Costs{CPUSeconds: func() float64 { return panelFlops / (perfmodel.HostPanelGFLOPS * 1e9) }},
			Accesses: append(colAccesses(k, k, taskgraph.ReadWrite),
				taskgraph.Access{H: pivs[k], Mode: taskgraph.Write}),
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
		g.Add(panel)
		tasks = append(tasks, panel)
		if opts.Lookahead >= 0 {
			if gate := k - 1 - opts.Lookahead; gate >= 0 {
				g.After(panel, iter[gate]...)
			}
		}

		for c := 0; c < geo.t; c++ {
			if c == k {
				continue
			}
			c := c
			c0, cw := geo.off(c), geo.width(c)
			swapSec := func() float64 { return 16 * float64(jb) * float64(cw) / (graphSwapGBps * 1e9) }
			accs := append(colAccesses(k, c, taskgraph.ReadWrite),
				taskgraph.Access{H: pivs[k], Mode: taskgraph.Read})
			var t *taskgraph.Task
			if c < k {
				// Pivots applied to the already-factored columns on the left.
				t = &taskgraph.Task{
					Name:     indexed("swap", k, c),
					Codelet:  "lu.swap",
					Priority: 1,
					Costs:    taskgraph.Costs{CPUSeconds: swapSec},
					Accesses: accs,
				}
				if a != nil {
					t.Run = func() { blas.Dlaswp(a.View(0, c0, n, cw), ipiv, j, j+jb) }
				}
			} else {
				// Pivots plus the U12 triangular solve on the right.
				trsmFlops := float64(jb) * float64(jb) * float64(cw)
				t = &taskgraph.Task{
					Name:     indexed("prep", k, c),
					Codelet:  "lu.trsm",
					Flops:    trsmFlops,
					Priority: 2,
					Costs: taskgraph.Costs{CPUSeconds: func() float64 {
						return swapSec() + trsmFlops/(perfmodel.HostTrsmGFLOPS*1e9)
					}},
					Accesses: append(accs, taskgraph.Access{H: tiles[k][k], Mode: taskgraph.Read}),
				}
				if a != nil {
					t.Run = func() {
						blas.Dlaswp(a.View(0, c0, n, cw), ipiv, j, j+jb)
						blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
							1, a.View(j, j, jb, jb), a.View(j, c0, jb, cw))
					}
				}
			}
			g.Add(t)
			tasks = append(tasks, t)
		}

		for c := k + 1; c < geo.t; c++ {
			c0, cw := geo.off(c), geo.width(c)
			for r := k + 1; r < geo.t; r++ {
				r0, rh := geo.off(r), geo.width(r)
				t := &taskgraph.Task{
					Name:    indexed("upd", k, r, c),
					Codelet: "lu.gemm",
					Flops:   2 * float64(rh) * float64(cw) * float64(jb),
					Shape:   [3]int{rh, cw, jb},
					Costs: taskgraph.Costs{
						CPUSeconds: func() float64 { return core.Seconds(rh, cw, jb, false) },
						GPUSeconds: func() float64 { return gpu.Model().KernelSeconds(rh, cw, jb) },
					},
					Accesses: []taskgraph.Access{
						{H: tiles[r][k], Mode: taskgraph.Read},
						{H: tiles[k][c], Mode: taskgraph.Read},
						{H: tiles[r][c], Mode: taskgraph.ReadWrite},
					},
				}
				if opts.Hybrid {
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
				g.Add(t)
				tasks = append(tasks, t)
			}
		}
		iter = append(iter, tasks)
	}
	return g
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

// indexed returns prefix(i) or prefix(i,j,...), byte for byte what fmt prints
// for "prefix(%d,%d)", formatted into a stack buffer so that a name costs one
// allocation, the string itself. The whole-factorisation graph names
// 1,482 handles and 19,019 tasks at the paper's size.
func indexed(prefix string, idx ...int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	b = append(b, '(')
	for i, v := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ')'))
}
