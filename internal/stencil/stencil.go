// Package stencil expresses a 3-D 7-point Jacobi sweep as a task graph — the
// first non-GEMM workload on the taskgraph runtime. The grid is decomposed
// into Z-slabs double-buffered across two parity handle sets; each time step's
// slab task reads its own slab and its two halo neighbours from one parity and
// writes the other. Dependency inference then yields the classic wavefront
// pipeline: a slab may advance to step t+1 as soon as its neighbourhood has
// finished step t, with no global barrier between steps. Small grids carry
// real arithmetic bodies (verified bit-identical against a naive reference at
// any body parallelism); large grids run virtual, placement and transfers
// only, like the rest of the simulator.
package stencil

import (
	"fmt"
	"sync"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

// Memory-bound effective rates of the 7-point kernel, counting the 8 flops
// per updated cell: the kernel streams ~4 doubles per cell, so both devices
// sit far below their DGEMM rates, and the GPU's bandwidth advantage is the
// whole placement story.
const (
	// CPUStencilGFLOPS is the host per-core rate of the slab update.
	CPUStencilGFLOPS = 4.0
	// GPUStencilGFLOPS is the device rate of the slab update.
	GPUStencilGFLOPS = 55.0
)

// flopsPerCell is the operation count of one 7-point update (6 adds, the
// -6c scale and the alpha multiply-add).
const flopsPerCell = 8.0

// alpha is the diffusion coefficient: 1/8 is stable for the 7-point operator.
const alpha = 0.125

// Config describes one sweep.
type Config struct {
	// NX, NY, NZ are the grid dimensions in points.
	NX, NY, NZ int
	// Steps is the number of Jacobi time steps.
	Steps int
	// BlockZ is the Z-slab depth of the decomposition; <= 0 selects 8.
	BlockZ int
	// Hybrid arms slab tasks with the split CPU+GPU body: a slab's XY-rows
	// divide between the device and the host cores by an adaptive GSplit
	// learned per slab size, the same oracle the LU trailing update uses.
	// The scheduler still chooses per task among cpu, gpu, and hybrid by
	// earliest predicted finish.
	Hybrid bool
	// Seed drives the deterministic initial condition.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.BlockZ <= 0 {
		c.BlockZ = 8
	}
	return c
}

// Blocks returns the slab count of the decomposition.
func (c Config) Blocks() int { return (c.NZ + c.BlockZ - 1) / c.BlockZ }

// points returns the grid size.
func (c Config) points() int { return c.NX * c.NY * c.NZ }

// Sweep is one sweep instance: the configuration plus, for real runs, the
// two parity grids the tasks ping-pong between.
//
// A real Sweep owns one grid, buf[0]: the initial condition after New, the
// grid after the last executed step once a Run has returned. Run borrows the
// second grid, buf[1], from the package's spare for as long as it executes
// and hands it back on every path, errors and stalls included; after an odd
// step count it first swaps the two, so buf[0] always holds the result and a
// second Run continues from it. The borrowed grid holds stale values, which
// no result can read: every step writes every cell of its output (boundary
// copies plus interior rows), and the bitwise check against Reference holds
// that.
//
// Result is valid until the Sweep's next Run. The real slab bodies of
// Graph look the grids up when they execute, not when the graph is built, so
// a graph built outside Run captures no grid; its bodies touch the borrowed
// grid only while Run executes them.
type Sweep struct {
	cfg Config
	buf [2][]float64 // nil in virtual mode; buf[1] nil outside Run
	// part is the hybrid split oracle, built on first Run (it needs the
	// element's core count); nil leaves slab tasks whole-device.
	part adaptive.Partitioner
}

// spare is the package's one scratch grid, the largest second grid a real
// Run has handed back: a sweep borrows it for the length of its Run, so a
// sweep owns one grid and back-to-back sweeps share the other.
var spare struct {
	mu   sync.Mutex
	grid []float64
}

// borrowGrid takes the spare if it holds n cells and allocates otherwise.
// The grid it returns holds stale values.
func borrowGrid(n int) []float64 {
	spare.mu.Lock()
	g := spare.grid
	if cap(g) >= n {
		spare.grid = nil
	}
	spare.mu.Unlock()
	if cap(g) >= n {
		return g[:n]
	}
	return make([]float64, n)
}

// returnGrid hands a borrowed grid back: the spare keeps the larger of it
// and the one it already holds.
func returnGrid(g []float64) {
	spare.mu.Lock()
	if cap(g) > cap(spare.grid) {
		spare.grid = g[:cap(g)]
	}
	spare.mu.Unlock()
}

// New builds a real sweep: its grid allocated and filled with the
// deterministic initial condition (uniform values in [-0.5, 0.5) from the
// seed, the same generator idiom the HPL driver uses).
func New(cfg Config) *Sweep {
	cfg = cfg.withDefaults()
	s := &Sweep{cfg: cfg}
	s.buf[0] = make([]float64, cfg.points())
	sim.NewStream(cfg.Seed, "stencil/init").FillCentered(s.buf[0])
	return s
}

// NewVirtual builds a placement-only sweep: the graph carries costs and
// footprints but no arithmetic, so Fig-8-class grids schedule in microseconds.
func NewVirtual(cfg Config) *Sweep {
	return &Sweep{cfg: cfg.withDefaults()}
}

// Config returns the (defaulted) configuration.
func (s *Sweep) Config() Config { return s.cfg }

// Result returns the grid after the last executed step: the initial
// condition before any Run. It is valid until the Sweep's next Run. Virtual
// sweeps return nil.
func (s *Sweep) Result() []float64 { return s.buf[0] }

// updateSlab advances cells with z in [z0, z1) by one Jacobi step: interior
// cells get u + alpha*(sum of the 6 neighbours - 6u) from updateRow, boundary
// cells carry their value over (Dirichlet). The boundary is copied outside
// the cell loop: the first and last planes, and every plane too thin to have
// an interior, whole; each other plane's first and last rows, and each
// interior row's first and last cells.
func (s *Sweep) updateSlab(in, out []float64, z0, z1 int) {
	nx, ny, nz := s.cfg.NX, s.cfg.NY, s.cfg.NZ
	plane := nx * ny
	for k := z0; k < z1; k++ {
		p0 := k * plane
		src, dst := in[p0:p0+plane], out[p0:p0+plane]
		if k == 0 || k == nz-1 || nx < 3 || ny < 3 {
			copy(dst, src)
			continue
		}
		copy(dst[:nx], src[:nx])
		copy(dst[plane-nx:], src[plane-nx:])
		for r := p0 + nx; r < p0+plane-nx; r += nx {
			out[r], out[r+nx-1] = in[r], in[r+nx-1]
			updateRow(out[r:r+nx], in[r:r+nx], in[r-nx:r], in[r+nx:r+2*nx],
				in[r-plane:r-plane+nx], in[r+plane:r+plane+nx])
		}
	}
}

// Graph builds the sweep's task graph over the element's cost models:
// Steps × blocks tasks of codelet "stencil.jacobi", each reading its slab and
// halo neighbours from one parity and writing its slab of the other.
func (s *Sweep) Graph() *taskgraph.Graph {
	cfg := s.cfg
	g := taskgraph.New()
	nb := cfg.Blocks()
	depth := func(b int) int { return min(cfg.BlockZ, cfg.NZ-b*cfg.BlockZ) }

	slabs := [2][]*taskgraph.Handle{}
	for p := 0; p < 2; p++ {
		slabs[p] = make([]*taskgraph.Handle, nb)
		for b := 0; b < nb; b++ {
			slabs[p][b] = g.NewHandle(taskgraph.Name("u%d(%d)", p, b),
				8*int64(cfg.NX)*int64(cfg.NY)*int64(depth(b)))
		}
	}

	// One codelet for every slab. Its rows are the slab's XY-rows, each
	// carrying NX cells, so a slab's cost is its work: the written slab
	// divides cleanly along Y×Z.
	rowFlops := flopsPerCell * float64(cfg.NX)
	jacobi := &taskgraph.Codelet{Name: "stencil.jacobi",
		CPUSeconds: func(_ *taskgraph.Task, rows int) float64 { return rowFlops * float64(rows) / (CPUStencilGFLOPS * 1e9) },
		GPUSeconds: func(_ *taskgraph.Task, rows int) float64 { return rowFlops * float64(rows) / (GPUStencilGFLOPS * 1e9) },
	}
	if s.part != nil {
		jacobi.Hybrid = &taskgraph.Hybrid{
			Part: s.part,
			// The memory-bound kernel runs at the same streaming rate on
			// every core, so equal host shares are already balanced.
			EqualShares: true,
			// The halo reads divide with the written rows — the device half
			// needs its row share plus a halo sliver, which the row fraction
			// already bounds — so the upload scales with the split instead
			// of shipping three whole slabs.
			SplitReads: true,
			FillSkew:   true,
		}
	}
	for t := 0; t < cfg.Steps; t++ {
		p := t % 2
		for b := 0; b < nb; b++ {
			z0 := b * cfg.BlockZ
			z1 := z0 + depth(b)
			var halo [4]taskgraph.Access
			accs := append(halo[:0], taskgraph.Access{H: slabs[p][b], Mode: taskgraph.Read})
			if b > 0 {
				accs = append(accs, taskgraph.Access{H: slabs[p][b-1], Mode: taskgraph.Read})
			}
			if b+1 < nb {
				accs = append(accs, taskgraph.Access{H: slabs[p][b+1], Mode: taskgraph.Read})
			}
			accs = append(accs, taskgraph.Access{H: slabs[1-p][b], Mode: taskgraph.Write})
			task := taskgraph.Task{
				Name:    taskgraph.Name("jac(%d,%d)", t, b),
				Codelet: jacobi,
				Flops:   flopsPerCell * float64(cfg.NX) * float64(cfg.NY) * float64(depth(b)),
				Rows:    cfg.NY * depth(b),
			}
			if s.buf[0] != nil {
				task.Run = func() { s.updateSlab(s.buf[p], s.buf[1-p], z0, z1) }
			}
			g.Add(task, accs...)
		}
	}
	return g
}

// Run schedules the sweep on the element and, for real sweeps, executes the
// slab bodies over the Sweep's grid and a borrowed second grid. The runtime
// executes bodies only once placement completes, so a Run that fails (a
// scheduling error or a stall) leaves Result as it was.
func (s *Sweep) Run(el *element.Element, opts taskgraph.Options) (taskgraph.Report, error) {
	if s.cfg.Hybrid && s.part == nil {
		// Bucket splits by slab work; the GEMM-derived initial ratio is only
		// the prior — the oracle converges to the bandwidth ratio the
		// memory-bound kernel actually exhibits.
		maxWork := flopsPerCell * float64(s.cfg.NX) * float64(s.cfg.NY) * float64(s.cfg.BlockZ)
		s.part = adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())
	}
	done := false
	if s.buf[0] != nil {
		s.buf[1] = borrowGrid(len(s.buf[0]))
		defer func() {
			if done && s.cfg.Steps%2 == 1 {
				// The last step wrote the borrowed grid: keep it.
				s.buf[0], s.buf[1] = s.buf[1], s.buf[0]
			}
			returnGrid(s.buf[1])
			s.buf[1] = nil
		}()
	}
	sch := taskgraph.NewScheduler(el, opts)
	rep, err := sch.Run(s.Graph(), 0)
	if err != nil {
		return rep, err
	}
	if rep.Stalled {
		return rep, fmt.Errorf("stencil: sweep stalled waiting for the GPU (no CPU fallback)")
	}
	done = true
	return rep, nil
}

// Reference advances the same initial condition with a plain serial loop
// over every cell, the independent implementation the graph execution and
// the row kernels are verified against. It spells out the row-kernel
// contract (row.go) per cell, each product rounded explicitly.
func Reference(cfg Config) []float64 {
	s := New(cfg)
	s.buf[1] = make([]float64, len(s.buf[0]))
	nx, ny, nz := s.cfg.NX, s.cfg.NY, s.cfg.NZ
	for t := 0; t < s.cfg.Steps; t++ {
		in, out := s.buf[t%2], s.buf[1-t%2]
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				base := nx * (j + ny*k)
				for i := 0; i < nx; i++ {
					c := in[base+i]
					if i == 0 || i == nx-1 || j == 0 || j == ny-1 || k == 0 || k == nz-1 {
						out[base+i] = c
						continue
					}
					sum := in[base+i-1] + in[base+i+1] +
						in[base+i-nx] + in[base+i+nx] +
						in[base+i-nx*ny] + in[base+i+nx*ny]
					out[base+i] = c + float64(alpha*(sum-float64(6*c)))
				}
			}
		}
	}
	return s.buf[s.cfg.Steps%2]
}
