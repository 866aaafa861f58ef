package main

import (
	"fmt"

	"tianhe/internal/element"
	"tianhe/internal/stencil"
	"tianhe/internal/taskgraph"
)

// --- stencil-graph: the task runtime under a memory-bound kernel ---

// stencilBlocks are the slab depths of the virtual 768^3 sweeps.
var stencilBlocks = []int{8, 16, 32, 48}

func stencilReal(seed uint64, hybrid bool) stencil.Config {
	return stencil.Config{NX: 128, NY: 128, NZ: 128, Steps: 4, BlockZ: 8, Hybrid: hybrid, Seed: seed}
}

func stencilVirtual(seed uint64, blockZ int, hybrid bool) stencil.Config {
	return stencil.Config{NX: 768, NY: 768, NZ: 768, Steps: 4, BlockZ: blockZ, Hybrid: hybrid, Seed: seed}
}

func virtualElement(seed uint64) *element.Element {
	return element.New(element.Config{Seed: seed, Virtual: true})
}

func setupStencilGraph(e env) (passFunc, error) {
	// The serial reference; the hybrid flag does not change the arithmetic.
	want := stencil.Reference(stencilReal(e.seed, false))

	return func(rec *recorder) (values, error) {
		v := values{}
		for _, hybrid := range []bool{true, false} {
			done := rec.begin("stencil.New")
			s := stencil.New(stencilReal(e.seed, hybrid))
			done()
			done = rec.begin("stencil.Run[real]")
			_, err := s.Run(virtualElement(e.seed), taskgraph.Options{Par: e.par})
			done()
			if err != nil {
				return nil, err
			}
			if !sameBits(s.Result(), want) {
				return nil, fmt.Errorf("128^3 sweep (hybrid=%v) differs bitwise from stencil.Reference", hybrid)
			}
		}
		for _, bz := range stencilBlocks {
			for _, hybrid := range []bool{true, false} {
				done := rec.begin("stencil.Run[virtual]")
				rep, err := stencil.NewVirtual(stencilVirtual(e.seed, bz, hybrid)).Run(virtualElement(e.seed), taskgraph.Options{})
				done()
				if err != nil {
					return nil, err
				}
				if !hybrid {
					continue
				}
				v[fmt.Sprintf("stencil.virt_gflops_bz%d", bz)] = rep.GFLOPS()
				if bz == 8 {
					v["virt_makespan_s"] = rep.Seconds()
					v["stencil.gpu_task_share_bz8"] = float64(rep.TasksGPU+rep.TasksHyb) / float64(rep.Tasks)
				}
			}
		}
		return v, nil
	}, nil
}
