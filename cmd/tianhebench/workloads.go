package main

import (
	"fmt"
	"math"

	"tianhe/internal/hpl"
	"tianhe/internal/telemetry"
)

// env is what a workload is generated from: the seed every input derives
// from and the worker count handed to every Par/Workers argument.
type env struct {
	seed uint64
	par  int
}

// values are the numbers one pass yields besides its host time: simulated
// times, rates and exact counts, keyed by metric name. They derive from the
// seed alone, so every pass of a run must reproduce them bit for bit.
type values map[string]float64

// passFunc runs one pass — one op — of a workload, checks its outputs and
// returns its values. rec is nil on untraced passes.
type passFunc func(rec *recorder) (values, error)

// workload is one closed-loop input set. setup generates the inputs and
// references from the seed and returns the pass; the program under test only
// ever sees generated inputs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// passes is the pass count of a full run, sized for two cores.
	passes int
	// layers are the probe groups whose numbers this workload's traced run
	// reports: the modules that do its work.
	layers []string
	setup  func(e env) (passFunc, error)
}

var workloads = []workload{
	{
		name:   "lu-real",
		why:    "real N=1024 LU, monolithic and graph-scheduled: blas does the work, so a kernel or packing change must show here",
		passes: 40,
		layers: []string{"blas", "hpl"},
		setup:  setupLUReal,
	},
	{
		name:   "lu-dist",
		why:    "real N=768 distributed solves (2-D, 1-D, elastic with a death): same blas at panel-sliver shapes under cluster, mpi and recover",
		passes: 60,
		layers: []string{"cluster-real", "mpi", "recover"},
		setup:  setupLUDist,
	},
	{
		name:   "sim-element",
		why:    "N=46080 single-element simulations, no arithmetic: taskgraph, linpacksim, pipeline, hybrid, adaptive and sim work while blas is bypassed",
		passes: 50,
		layers: []string{"taskgraph", "element-model", "guards"},
		setup: func(e env) (passFunc, error) {
			return setupSimElement(e, telemetry.Disabled)
		},
	},
	{
		name:   "sim-machine",
		why:    "1/8/80-cabinet scale models, the Fig. 11 pair and the elastic model: cluster, sweep and perfmodel work; taskgraph and blas are not touched",
		passes: 30,
		layers: []string{"cluster-model", "sweep"},
		setup:  setupSimMachine,
	},
	{
		name:   "serve-ladder",
		why:    "open-loop ladder of 1,200 Poisson clients from 1000 to 16000 jobs/s plus two fault rungs: serve, loadgen and the virtual hybrid runner",
		passes: 35,
		layers: []string{"serve"},
		setup:  setupServeLadder,
	},
	{
		name:   "stencil-graph",
		why:    "real 128^3 Jacobi and virtual 768^3 sweeps through taskgraph: memory-bound slabs and halo reads, the scheduler used unlike LU and with no blas",
		passes: 120,
		layers: []string{"stencil"},
		setup:  setupStencilGraph,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sameBits reports bitwise equality of two float slices (NaNs included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkResidual(what string, residual float64, passed bool) error {
	if !passed || !(residual < hpl.ResidualThreshold) {
		return fmt.Errorf("%s: scaled residual %g not below %g", what, residual, hpl.ResidualThreshold)
	}
	return nil
}
