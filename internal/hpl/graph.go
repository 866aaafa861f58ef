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

// span is the extent of blocks [i, end), the last block ending at limit.
func (g luTiles) span(i, end, limit int) int {
	if end >= g.t {
		return limit - g.off(i)
	}
	return g.off(end) - g.off(i)
}

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
//
// A nil element builds the host form Dgetrf runs on taskgraph.Execute, for
// an a of n columns and n or more rows: one handle per block column and the
// updates of addUpdates' host form. It is never placed: Hybrid is ignored.
func BuildLUGraph(n int, a *matrix.Dense, ipiv []int, el *element.Element, errs []error, opts GraphOptions) *taskgraph.Graph {
	return buildLU(n, a, ipiv, el, errs, opts, nil)
}

// buildLU is BuildLUGraph with a seam for the host form: a non-nil gemm
// makes each panel's update one call of it over the whole trailing matrix.
func buildLU(n int, a *matrix.Dense, ipiv []int, el *element.Element, errs []error, opts GraphOptions, gemm GemmFunc) *taskgraph.Graph {
	opts = opts.withDefaults()
	m := n
	if a != nil {
		if m = a.Rows; a.Cols != n || m < n || el != nil && m != n {
			panic("hpl: BuildLUGraph requires an n×n matrix, or n columns and m >= n rows with no element")
		}
		if len(ipiv) < n {
			panic("hpl: ipiv too short")
		}
	}
	geo := luTiles{n: n, nb: opts.NB, t: (n + opts.NB - 1) / opts.NB}
	b := &luBuilder{
		g: taskgraph.New(), geo: geo, m: m, a: a, ipiv: ipiv, errs: errs, opts: opts,
		rowStep: 1, colStep: 1, gemm: dgemm,
		pivs: make([]*taskgraph.Handle, geo.t),
		cs:   NewLUCodelets(el),
	}
	if gemm != nil {
		b.gemm, b.colStep = gemm, geo.t
	}
	if el == nil {
		b.rowStep = max(geo.t, 1)
	} else {
		b.g.Grow(luCounts(geo.t))
	}
	b.tiles = make([]*taskgraph.Handle, 0, geo.t*geo.t/b.rowStep)
	for r := 0; r < geo.t; r += b.rowStep {
		for c := 0; c < geo.t; c++ {
			b.tiles = append(b.tiles, b.g.NewHandle(taskgraph.Name("t(%d,%d)", r, c),
				8*int64(geo.span(r, r+b.rowStep, m))*int64(geo.width(c))))
		}
	}
	for k := range b.pivs {
		b.pivs[k] = b.g.NewHandle(taskgraph.Name("piv(%d)", k), 8*int64(geo.width(k)))
	}
	if opts.Hybrid && el != nil {
		// The split oracle starts from the element's peak ratio and buckets
		// by tile work: full NB³ update tiles land in the top bucket, the
		// narrower edge tiles in lower ones — the same shape keying the
		// monolithic loop's database_g uses for trailing updates.
		maxWork := 2 * float64(opts.NB) * float64(opts.NB) * float64(opts.NB)
		b.cs.Gemm.Hybrid = &taskgraph.Hybrid{Part: adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())}
	}
	for k := 0; k < geo.t; k++ {
		b.iterStart = append(b.iterStart, b.g.Len())
		b.addPanel(k)
		b.addSwapsAndPreps(k)
		b.addUpdates(k)
	}
	return b.g
}

// luCounts returns how many tasks the graph over t×t tiles holds and how
// many Read accesses they declare. Iteration k adds one panel, t−1 swaps and
// preps and (t−k−1)² updates; a swap reads the pivots, a prep the pivots and
// the diagonal tile, an update two tiles.
func luCounts(t int) (tasks, reads int) {
	for k := 0; k < t; k++ {
		u := (t - k - 1) * (t - k - 1)
		tasks += t + u
		reads += k + 2*(t-k-1) + 2*u
	}
	return tasks, reads
}

// luBuilder is a whole-factorization graph under construction.
type luBuilder struct {
	g    *taskgraph.Graph
	geo  luTiles
	m    int           // rows: n, or more in a tall host form
	a    *matrix.Dense // nil builds the virtual form, with no bodies
	ipiv []int
	errs []error
	opts GraphOptions
	// rowStep and colStep are the row and column blocks an update spans (a
	// host-form handle too spans every row block), and gemm its body.
	rowStep, colStep int
	gemm             GemmFunc

	tiles []*taskgraph.Handle // one per matrix tile, row-major t×t
	pivs  []*taskgraph.Handle // one per panel's pivot block
	// iterStart[k] is the id of iteration k's first task: ids are creation
	// order, so iteration k is Tasks()[iterStart[k]:iterStart[k+1]].
	iterStart []int
	accs      []taskgraph.Access // scratch for column-long access lists

	cs LUCodelets
}

func (b *luBuilder) tile(r, c int) *taskgraph.Handle { return b.tiles[r/b.rowStep*b.geo.t+c] }

// LUCodelets are the LU factorization's four task classes, each shared by
// every task of its class that a graph books.
type LUCodelets struct {
	Panel, Swap, Trsm, Gemm *taskgraph.Codelet
}

// NewLUCodelets makes the LU codelets priced on el, fresh on every call so a
// caller may arm or clear a variant on its own copy:
//
//	lu.panel  the recursive panel factor, its Flops at the host panel rate
//	lu.swap   pivot row swaps of a jb×cw Shape at the host swap bandwidth
//	lu.trsm   a swap, then the U12 solve's Flops at the host TRSM rate
//	lu.gemm   a trailing-update DGEMM of Shape (rows, n, k) on core 0 or the GPU
//
// A rows-high slab of an update has the shape (rows, Shape[1], Shape[2]).
// Core 0 is priced with its L2 neighbour idle. A nil element's set, the
// host form's, is never priced: that form is run, not placed.
func NewLUCodelets(el *element.Element) LUCodelets {
	swapSeconds := func(t *taskgraph.Task, _ int) float64 {
		return 16 * float64(t.Shape[0]) * float64(t.Shape[1]) / (perfmodel.HostSwapGBps * 1e9)
	}
	return LUCodelets{
		Panel: &taskgraph.Codelet{Name: "lu.panel",
			CPUSeconds: func(t *taskgraph.Task, _ int) float64 { return t.Flops / (perfmodel.HostPanelGFLOPS * 1e9) }},
		Swap: &taskgraph.Codelet{Name: "lu.swap", CPUSeconds: swapSeconds},
		Trsm: &taskgraph.Codelet{Name: "lu.trsm", CPUSeconds: func(t *taskgraph.Task, _ int) float64 {
			return swapSeconds(t, 0) + t.Flops/(perfmodel.HostTrsmGFLOPS*1e9)
		}},
		Gemm: &taskgraph.Codelet{Name: "lu.gemm",
			CPUSeconds: func(t *taskgraph.Task, rows int) float64 {
				return el.CPU.Core(0).Seconds(rows, t.Shape[1], t.Shape[2], false)
			},
			GPUSeconds: func(t *taskgraph.Task, rows int) float64 {
				return el.GPU.Model().KernelSeconds(rows, t.Shape[1], t.Shape[2])
			},
		},
	}
}

// PanelFlops is the work of factoring a height×width panel.
func PanelFlops(height, width int) float64 {
	return float64(width) * float64(width) * (float64(height) - float64(width)/3)
}

// colAccesses declares, in the builder's scratch, the footprint of a
// whole-column operation touching rows >= the diagonal block (pivoting never
// reaches above it), followed by extra.
func (b *luBuilder) colAccesses(k, c int, mode taskgraph.AccessMode, extra ...taskgraph.Access) []taskgraph.Access {
	accs := b.accs[:0]
	for r := k; r < b.geo.t; r += b.rowStep {
		accs = append(accs, taskgraph.Access{H: b.tile(r, c), Mode: mode})
	}
	b.accs = append(accs, extra...)
	return b.accs
}

// addPanel books panel(k), gated by the look-ahead depth barrier.
func (b *luBuilder) addPanel(k int) {
	a, ipiv, errs := b.a, b.ipiv, b.errs
	j, jb := b.geo.off(k), b.geo.width(k)
	mp := b.m - j // panel height
	panel := taskgraph.Task{
		Name:     taskgraph.Name("panel(%d)", k),
		Codelet:  b.cs.Panel,
		Flops:    PanelFlops(mp, jb),
		Priority: 3,
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
// plus the U12 triangular solve — on the right. Both carry the panel and
// column widths as their Shape (jb, cw, jb), which their codelets read: no
// task keeps a cost function of its own, and being host-only they are never
// verified.
func (b *luBuilder) addSwapsAndPreps(k int) {
	a, ipiv, m := b.a, b.ipiv, b.m
	j, jb := b.geo.off(k), b.geo.width(k)
	for c := 0; c < b.geo.t; c++ {
		if c == k {
			continue
		}
		c0, cw := b.geo.off(c), b.geo.width(c)
		pivots := taskgraph.Access{H: b.pivs[k], Mode: taskgraph.Read}
		if c < k {
			t := taskgraph.Task{
				Name:     taskgraph.Name("swap(%d,%d)", k, c),
				Codelet:  b.cs.Swap,
				Shape:    [3]int{jb, cw, jb},
				Priority: 1,
			}
			if a != nil {
				t.Run = func() { blas.Dlaswp(a.View(0, c0, m, cw), ipiv, j, j+jb) }
			}
			b.g.Add(t, b.colAccesses(k, c, taskgraph.ReadWrite, pivots)...)
			continue
		}
		t := taskgraph.Task{
			Name:     taskgraph.Name("prep(%d,%d)", k, c),
			Codelet:  b.cs.Trsm,
			Flops:    float64(jb) * float64(jb) * float64(cw),
			Shape:    [3]int{jb, cw, jb},
			Priority: 2,
		}
		if a != nil {
			t.Run = func() {
				blas.Dlaswp(a.View(0, c0, m, cw), ipiv, j, j+jb)
				blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
					1, a.View(j, j, jb, jb), a.View(j, c0, jb, cw))
			}
		}
		b.g.Add(t, b.colAccesses(k, c, taskgraph.ReadWrite, pivots,
			taskgraph.Access{H: b.tile(k, k), Mode: taskgraph.Read})...)
	}
}

// addUpdates books iteration k's trailing update, upd(k,r,c) for every tile
// below and right of the diagonal block, column by column. A host-form
// update spans every row below the panel and colStep block columns — one, or
// all of them with a gemm seam, which then sees one call per panel, in panel
// order — and the one feeding panel k+1 takes the panel's priority.
func (b *luBuilder) addUpdates(k int) {
	a, t, gemm, step := b.a, b.geo.t, b.gemm, b.rowStep
	j, jb := b.geo.off(k), b.geo.width(k)
	for c := k + 1; c < t; c += b.colStep {
		c0, cw := b.geo.off(c), b.geo.span(c, c+b.colStep, b.geo.n)
		for r := k + 1; r < t; r += step {
			r0, rh := b.geo.off(r), b.geo.span(r, r+step, b.m)
			task := taskgraph.Task{
				Name:    taskgraph.Name("upd(%d,%d,%d)", k, r, c),
				Codelet: b.cs.Gemm,
				Flops:   2 * float64(rh) * float64(cw) * float64(jb),
				Shape:   [3]int{rh, cw, jb},
				Rows:    rh,
			}
			if step > 1 && c == k+1 { // the host form's look-ahead update
				task.Priority = 3
			}
			if a != nil {
				task.Run = func() {
					gemm(-1, a.View(r0, j, rh, jb), a.View(j, c0, jb, cw), 1, a.View(r0, c0, rh, cw))
				}
			}
			accs := append(b.accs[:0], taskgraph.Access{H: b.tile(r, k), Mode: taskgraph.Read})
			if step == 1 { // a host-form handle holds U12 with the rows it updates
				accs = append(accs, taskgraph.Access{H: b.tile(k, c), Mode: taskgraph.Read})
			}
			for cc := c; cc < min(c+b.colStep, t); cc++ {
				accs = append(accs, taskgraph.Access{H: b.tile(r, cc), Mode: taskgraph.ReadWrite})
			}
			b.accs = accs
			b.g.Add(task, accs...)
		}
	}
}

// dgemm is the updates' body unless a seam replaces it.
func dgemm(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
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
	// a balanced split joins at roughly the sum of the sides' rates. Both
	// products are rounded before the add, so no FMA shifts the seed.
	hybRate := float64(gpuRate) + float64(float64(el.CPU.NumCores())*cpuRate)
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
// scheduler, and the host bodies then run through taskgraph.Execute on
// opts.Sched.Par workers. The result — factors, pivots, and the lowest
// panel's ErrSingular — is bit-identical to Dgetrf with the same NB, at any
// look-ahead depth and any body parallelism: the decomposition never splits
// a DGEMM's summation depth and every other codelet is column-independent.
func GraphDgetrf(a *matrix.Dense, ipiv []int, el *element.Element, opts GraphOptions) (taskgraph.Report, error) {
	opts = opts.withDefaults()
	errs := make([]error, (a.Cols+opts.NB-1)/opts.NB)
	g := BuildLUGraph(a.Cols, a, ipiv, el, errs, opts)
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
	return rep, firstErr(errs)
}

// firstErr returns the lowest panel's error in errs, or nil.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GraphRun executes the full Linpack workflow — generate, factor, solve,
// verify — with the factorization running through the task graph runtime,
// and the generation and the verification on opts.Sched.Par goroutines.
// The Result matches Run(n, seed, Options{NB: opts.NB}) bit for bit; the
// Report adds the scheduling view (placement counts, transfer bytes,
// simulated makespan).
func GraphRun(n int, seed uint64, el *element.Element, opts GraphOptions) (Result, taskgraph.Report, error) {
	opts = opts.withDefaults()
	lu, b := generate(n, seed, opts.Sched.Par)
	ipiv := make([]int, n)
	rep, err := GraphDgetrf(lu, ipiv, el, opts)
	if err != nil {
		return Result{}, rep, err
	}
	r, err := solveAndVerify(lu, ipiv, b, seed, opts.NB, opts.Sched.Par)
	return r, rep, err
}
