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
// two parity buffers the tasks ping-pong between.
type Sweep struct {
	cfg Config
	buf [2][]float64 // nil in virtual mode
	// part is the hybrid split oracle, built on first Run (it needs the
	// element's core count); nil leaves slab tasks whole-device.
	part adaptive.Partitioner
}

// New builds a real sweep: buffers allocated and filled with the
// deterministic initial condition (uniform values in [-0.5, 0.5) from the
// seed, the same generator idiom the HPL driver uses).
func New(cfg Config) *Sweep {
	cfg = cfg.withDefaults()
	s := &Sweep{cfg: cfg}
	s.buf[0] = make([]float64, cfg.points())
	s.buf[1] = make([]float64, cfg.points())
	rng := sim.NewStream(cfg.Seed, "stencil/init")
	for i := range s.buf[0] {
		s.buf[0][i] = rng.Float64() - 0.5
	}
	return s
}

// NewVirtual builds a placement-only sweep: the graph carries costs and
// footprints but no arithmetic, so Fig-8-class grids schedule in microseconds.
func NewVirtual(cfg Config) *Sweep {
	return &Sweep{cfg: cfg.withDefaults()}
}

// Config returns the (defaulted) configuration.
func (s *Sweep) Config() Config { return s.cfg }

// Result returns the grid after the last executed step. Virtual sweeps
// return nil.
func (s *Sweep) Result() []float64 {
	if s.buf[0] == nil {
		return nil
	}
	return s.buf[s.cfg.Steps%2]
}

// updateSlab advances cells with z in [z0, z1) by one Jacobi step: interior
// cells get u + alpha*(sum of the 6 neighbours - 6u), boundary cells carry
// their value over (Dirichlet).
func (s *Sweep) updateSlab(in, out []float64, z0, z1 int) {
	nx, ny, nz := s.cfg.NX, s.cfg.NY, s.cfg.NZ
	for k := z0; k < z1; k++ {
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
				out[base+i] = c + alpha*(sum-6*c)
			}
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

	// One pair of cost functions for the codelet: a slab's cost is its work.
	costs := taskgraph.Costs{
		CPUSeconds: func(t *taskgraph.Task) float64 { return t.Flops / (CPUStencilGFLOPS * 1e9) },
		GPUSeconds: func(t *taskgraph.Task) float64 { return t.Flops / (GPUStencilGFLOPS * 1e9) },
	}
	for t := 0; t < cfg.Steps; t++ {
		p := t % 2
		for b := 0; b < nb; b++ {
			z0 := b * cfg.BlockZ
			z1 := z0 + depth(b)
			flops := flopsPerCell * float64(cfg.NX) * float64(cfg.NY) * float64(depth(b))
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
				Codelet: "stencil.jacobi",
				Flops:   flops,
				Costs:   costs,
			}
			if s.part != nil {
				// The splittable extent is the slab's XY-rows: the written
				// slab divides cleanly along Y×Z, each row carrying NX cells.
				// CSplits stays nil — the memory-bound kernel runs at the
				// same streaming rate on every core, so equal shares are
				// already balanced.
				rows := cfg.NY * depth(b)
				rowFlops := flopsPerCell * float64(cfg.NX)
				task.Hybrid = &taskgraph.Hybrid{
					Rows:       rows,
					Split:      func() float64 { return s.part.GSplit(flops) },
					GPUSeconds: func(r int) float64 { return rowFlops * float64(r) / (GPUStencilGFLOPS * 1e9) },
					CPUSeconds: func(r int) float64 { return rowFlops * float64(r) / (CPUStencilGFLOPS * 1e9) },
					// The halo reads divide with the written rows — the device
					// half needs its row share plus a halo sliver, which the
					// row fraction already bounds — so the upload scales with
					// the split instead of shipping three whole slabs.
					SplitReads: true,
					FillSkew:   true,
					Observe: func(gsplit, tg, tc float64, coreWorks, coreTimes []float64) {
						s.part.Observe(adaptive.Observation{Work: flops, GSplit: gsplit, TG: tg, TC: tc,
							CoreWorks: coreWorks, CoreTimes: coreTimes})
					},
				}
			}
			if s.buf[0] != nil {
				in, out := s.buf[p], s.buf[1-p]
				task.Run = func() { s.updateSlab(in, out, z0, z1) }
			}
			g.Add(task, accs...)
		}
	}
	return g
}

// Run schedules the sweep on the element and, for real sweeps, executes the
// slab bodies.
func (s *Sweep) Run(el *element.Element, opts taskgraph.Options) (taskgraph.Report, error) {
	if s.cfg.Hybrid && s.part == nil {
		// Bucket splits by slab work; the GEMM-derived initial ratio is only
		// the prior — the oracle converges to the bandwidth ratio the
		// memory-bound kernel actually exhibits.
		maxWork := flopsPerCell * float64(s.cfg.NX) * float64(s.cfg.NY) * float64(s.cfg.BlockZ)
		s.part = adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())
	}
	sch := taskgraph.NewScheduler(el, opts)
	rep, err := sch.Run(s.Graph(), 0)
	if err != nil {
		return rep, err
	}
	if rep.Stalled {
		return rep, fmt.Errorf("stencil: sweep stalled waiting for the GPU (no CPU fallback)")
	}
	return rep, nil
}

// Reference advances the same initial condition with a plain serial loop, the
// independent implementation the graph execution is verified against.
func Reference(cfg Config) []float64 {
	s := New(cfg)
	for t := 0; t < s.cfg.Steps; t++ {
		s.updateSlab(s.buf[t%2], s.buf[1-t%2], 0, s.cfg.NZ)
	}
	return s.Result()
}
