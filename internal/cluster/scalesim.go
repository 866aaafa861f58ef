package cluster

import (
	"strconv"

	"tianhe/internal/grid"
	"tianhe/internal/hpl"
	"tianhe/internal/perfmodel"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
)

// Policy selects how splits are managed in the large-scale simulation.
type Policy int

const (
	// PolicyAdaptive is the paper's scheme: splits refresh every iteration
	// from the rates measured during the previous one.
	PolicyAdaptive Policy = iota
	// PolicyTrained is the Qilin comparison: splits are measured per element
	// and per problem size in an offline training phase — with the DGEMM
	// running alone, so the training never sees the CPU load that MPI
	// progress and panel factorization impose during the production run —
	// and stay frozen afterwards.
	PolicyTrained
)

func (p Policy) String() string {
	if p == PolicyTrained {
		return "qilin-trained"
	}
	return "adaptive"
}

// ScaleConfig describes one simulated multi-element Linpack run. The
// simulation keeps the exact per-iteration control structure of HPL (panel,
// broadcast, row swaps, trailing hybrid update, barrier at the iteration's
// slowest element) but evaluates each element's time analytically, which is
// what makes the paper's 5120-process, N = 2,240,000 configuration
// tractable.
type ScaleConfig struct {
	N, NB     int
	Processes int
	Seed      uint64
	Policy    Policy
	// Downclock applies the 575 MHz GPU engine clock of the long runs.
	Downclock bool
	// RecordProgress retains the cumulative-performance curve (Fig. 13).
	RecordProgress bool
	// Workers shards the elements across real cores, once per run: each
	// shard walks its elements through every iteration. Elements carry
	// independent RNG streams and per-element state, and each iteration's
	// reduction is a max over shards, so the result is bit-identical for
	// any worker count. Values <= 1 run the serial loop.
	Workers int
}

// The scale model's own constants, beside the hardware ones in perfmodel.
const (
	// driftSigma and driftMax shape the per-element GPU thermal random
	// walk: the per-iteration step and the clamp around 1.
	driftSigma = 0.004
	driftMax   = 0.08
	// perIterOverheadSec aggregates the distributed per-iteration costs that
	// do not scale with the trailing matrix: pivot-exchange latencies inside
	// the panel factorization, process synchronization, and the GPU buffer
	// re-setup each new trailing size forces. Calibrated against the paper's
	// single-cabinet result; it is what makes the endgame expensive
	// (Fig. 13's late performance drop).
	perIterOverheadSec = 0.8
)

// ProgressPoint is one sample of the Fig. 13 curve.
type ProgressPoint struct {
	// Frac is the fraction of the run's flops completed.
	Frac float64
	// CumTFLOPS is the cumulative performance up to this point.
	CumTFLOPS float64
}

// ScaleResult reports one simulated run.
type ScaleResult struct {
	N, NB, Processes int
	Grid             grid.Grid
	Seconds          float64
	GFLOPS           float64
	TFLOPS           float64
	Iterations       int
	Progress         []ProgressPoint
}

// runLoadFraction returns the share of host-core capacity consumed by
// communication progress threads, driver work and look-ahead bookkeeping
// during a production run with p processes. Training runs (the DGEMM alone
// on an idle node) see none of it; that blind spot is exactly what defeats
// the frozen trained splits at scale.
func runLoadFraction(p int) float64 {
	if p <= 1 {
		return 0.04
	}
	f := 0.04 + 0.14*sim.Log2(float64(p))/sim.Log2(64)
	if f > 0.22 {
		f = 0.22
	}
	return f
}

// pipelinedGPUSeconds estimates the pipelined executor's end-to-end time for
// an m x n x k update on the GPU: the tile kernels back to back plus the
// prologue (first task's inputs) and epilogue (last EO block) that cannot be
// hidden.
func pipelinedGPUSeconds(m, n, k int, g perfmodel.GPU, tr perfmodel.Transfer) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	tile := pipeline.ChooseTile(perfmodel.TextureLimit, perfmodel.GPULocalMemBytes, 512)
	tm, tn, tk := min(m, tile), min(n, tile), min(k, tile)
	kernelRate := g.Rate(tm, tn, tk) * 1e9
	flops := 2 * float64(m) * float64(n) * float64(k)
	kernelSec := flops / kernelRate
	prologue := tr.Seconds(8*int64(tm)*int64(tk)) +
		tr.Seconds(8*int64(tk)*int64(tn)) +
		tr.Seconds(8*int64(tm)*int64(tn))
	epilogue := tr.Seconds(8 * 512 * int64(tn))
	return kernelSec + prologue + epilogue
}

// iteration is one HPL iteration's update inputs. They depend only on the
// iteration, never on an element, so the whole table is built before any
// element steps.
type iteration struct {
	active bool // the local update is non-empty
	// w is the local update's flops and rgNominal the GPU rate for its
	// shape at nominal drift, in GFLOPS; each element scales it by its
	// thermal state.
	w, rgNominal float64
}

// localUpdate returns iteration k's trailing order and its local update
// extents on the 2D block-cyclic grid (balanced approximation; the exact
// per-rank extents differ by at most NB).
func localUpdate(cfg ScaleConfig, g grid.Grid, k int) (trailing, mloc, nloc int) {
	trailing = cfg.N - (k+1)*cfg.NB
	return trailing, trailing / g.P, trailing / g.Q
}

// iterations builds the per-iteration input table of a run.
func iterations(cfg ScaleConfig, g grid.Grid, gpuModel perfmodel.GPU, transfer perfmodel.Transfer) []iteration {
	its := make([]iteration, cfg.N/cfg.NB)
	for k := range its {
		_, mloc, nloc := localUpdate(cfg, g, k)
		if mloc > 0 && nloc > 0 {
			w := 2 * float64(mloc) * float64(nloc) * float64(cfg.NB)
			its[k] = iteration{active: true, w: w, rgNominal: w / pipelinedGPUSeconds(mloc, nloc, cfg.NB, gpuModel, transfer) / 1e9}
		}
	}
	return its
}

// fleet is the elements' simulation state, one slice per quantity.
type fleet struct {
	gpuScale []float64   // thermal drift factor around 1
	cpuRate  []float64   // aggregate compute-core GFLOPS (biases applied)
	split    []float64   // current GSplit (adaptive state or frozen trained)
	drift    sim.Streams // thermal random walk, one stream per element
	noise    sim.Streams // production-run CPU load, one stream per element

	adaptive bool
	loadFrac float64
	iters    []iteration
	slowest  [][]float64 // [shard][k]: the shard's slowest update time in iteration k
}

// newFleet draws every element's manufacturing spread and seeds its drift
// and noise streams; the split starts at the peak-rate ratio.
func newFleet(cfg ScaleConfig, gpuModel perfmodel.GPU) *fleet {
	n := cfg.Processes
	f := &fleet{
		gpuScale: make([]float64, n),
		cpuRate:  make([]float64, n),
		split:    make([]float64, n),
		drift:    make(sim.Streams, n),
		noise:    make(sim.Streams, n),
	}
	manuf := sim.NewStream(cfg.Seed, "scale/manufacturing")
	cleanCPU := 3 * perfmodel.CPUCoreGFLOPS * 0.97 // clean aggregate, no run load
	peakSplit := gpuModel.PeakGFLOPS / (gpuModel.PeakGFLOPS + float64(perfmodel.ComputeCores)*perfmodel.CPUCoreGFLOPS)
	for e := 0; e < n; e++ {
		f.gpuScale[e] = 1 + manuf.Normal(0, 0.015)
		f.cpuRate[e] = cleanCPU * (1 + manuf.Normal(0, 0.02))
		// AppendInt into a stack buffer, not Itoa: the stream names then
		// never reach the heap, at two per element of a 5,120-element run.
		var digits [20]byte
		id := strconv.AppendInt(digits[:0], int64(e), 10)
		f.drift[e] = *sim.NewStream(cfg.Seed, "scale/drift/"+string(id))
		f.noise[e] = *sim.NewStream(cfg.Seed, "scale/noise/"+string(id))
		f.split[e] = peakSplit
	}
	return f
}

// drawChunk is how many elements a shard walks through the whole run at
// once: their state, their draws and the shard's per-iteration maxima stay
// in L1 across every iteration.
const drawChunk = 64

// run advances elements [lo, hi) through every iteration and records, per
// iteration, the slowest one's update time for the shard. Elements advance
// independently (own streams drawn in iteration order, own state); the only
// cross-element interaction is the slowest-element max, which is exact and
// order-independent — per-shard maxima reduced afterwards give the serial
// result bit for bit.
func (f *fleet) run(shard, lo, hi int) {
	slowest := f.slowest[shard]
	var drift, noise [drawChunk]float64
	for c := lo; c < hi; c += drawChunk {
		n := min(drawChunk, hi-c)
		gpuScale, cpuRate, split := f.gpuScale[c:c+n], f.cpuRate[c:c+n], f.split[c:c+n]
		driftS, noiseS := f.drift[c:c+n], f.noise[c:c+n]
		for k, it := range f.iters {
			if !it.active {
				continue
			}
			driftS.Normal(0, driftSigma, drift[:n])
			noiseS.LogNormalFactor(0.10, noise[:n])
			slowest[k] = f.update(it, slowest[k], gpuScale, cpuRate, split, drift[:n], noise[:n])
		}
	}
}

// SimulateScale runs the large-scale Linpack model and returns its timing.
func SimulateScale(cfg ScaleConfig) ScaleResult {
	g := grid.Squarish(cfg.Processes)
	gpuModel := perfmodel.DefaultGPU()
	if cfg.Downclock {
		gpuModel = gpuModel.Downclocked()
	}
	transfer := perfmodel.DefaultTransfer()
	net := perfmodel.DefaultNetwork()
	crossCabinet := cfg.Processes > perfmodel.ElementsPerCabinet

	f := newFleet(cfg, gpuModel)

	// Trained splits: measured per element with the DGEMM running alone
	// (clean CPU rate, current GPU state) and then frozen.
	if cfg.Policy == PolicyTrained {
		// Representative training shape: a mid-run local update.
		mloc := cfg.N / g.P / 2
		nloc := cfg.N / g.Q / 2
		base := pipelinedGPUSeconds(mloc, nloc, cfg.NB, gpuModel, transfer)
		flops := 2 * float64(mloc) * float64(nloc) * float64(cfg.NB)
		for e := range f.split {
			rg := float64(flops / base / 1e9 * f.gpuScale[e])
			f.split[e] = rg / (rg + f.cpuRate[e])
		}
	}

	f.loadFrac = runLoadFraction(cfg.Processes)
	f.adaptive = cfg.Policy == PolicyAdaptive
	f.iters = iterations(cfg, g, gpuModel, transfer)
	f.slowest = make([][]float64, sweep.Shards(cfg.Workers, cfg.Processes))
	for s := range f.slowest {
		f.slowest[s] = make([]float64, len(f.iters))
	}
	// One fork for the whole run: each shard walks its elements through
	// every iteration.
	sweep.For(cfg.Workers, cfg.Processes, f.run)

	var total, flopsDone float64
	totalFlops := hpl.LinpackFlops(cfg.N)
	res := ScaleResult{N: cfg.N, NB: cfg.NB, Processes: cfg.Processes, Grid: g, Iterations: len(f.iters)}
	for k, it := range f.iters {
		trailing, mloc, nloc := localUpdate(cfg, g, k)
		nb := float64(cfg.NB)
		tr := float64(trailing)
		// This iteration's credited work: trailing update plus the panel
		// factorization and U12 solve flops.
		iterFlops := float64(2*tr*tr*nb) + float64(nb*nb*(tr+nb/3)) + float64(nb*nb*tr)

		var iterTime float64
		if it.active {
			for _, sl := range f.slowest {
				iterTime = max(iterTime, sl[k])
			}
			// The panel-owning process column factors the next panel during
			// the update (look-ahead); only its excess surfaces.
			panelSec := float64(cfg.NB) * float64(cfg.NB) *
				(float64(mloc) + float64(cfg.NB)/3) / (perfmodel.HostPanelGFLOPS * 1e9)
			if panelSec > iterTime {
				iterTime = panelSec
			}
		}

		// Communication: panel broadcast along the process row (Q ranks) and
		// the row-interchange exchange along the process column (P ranks).
		panelBytes := int64(8 * (mloc + cfg.NB) * cfg.NB)
		swapBytes := int64(8 * cfg.NB * nloc)
		iterTime += net.BcastSeconds(panelBytes, g.Q, crossCabinet)
		iterTime += net.BcastSeconds(swapBytes, g.P, crossCabinet)
		iterTime += perIterOverheadSec

		total += iterTime
		flopsDone += iterFlops
		if cfg.RecordProgress && total > 0 {
			res.Progress = append(res.Progress, ProgressPoint{
				Frac:      flopsDone / totalFlops,
				CumTFLOPS: flopsDone / total / 1e12,
			})
		}
	}
	// Normalize the progress axis over the work actually modeled, so the
	// curve always ends at exactly 100%.
	if len(res.Progress) > 0 && flopsDone > 0 {
		scale := totalFlops / flopsDone
		for i := range res.Progress {
			res.Progress[i].Frac *= scale
		}
	}
	res.Seconds = total
	res.GFLOPS = totalFlops / total / 1e9
	res.TFLOPS = res.GFLOPS / 1e3
	return res
}
