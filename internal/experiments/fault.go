package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/hybrid"
	"tianhe/internal/linpacksim"
	"tianhe/internal/mpi"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// RecoveryThreshold is the fraction of healthy steady-state GFLOPS a
// policy must regain after device restore to count as recovered.
const RecoveryThreshold = 0.90

// FaultCell is one (scenario, policy) measurement of FaultSweep.
type FaultCell struct {
	Scenario string
	Policy   string
	// HealthySeconds and HealthySS characterize the fault-free reference
	// run: its makespan and its steady-state GFLOPS (mean over the last
	// quarter of operations).
	HealthySeconds float64
	HealthySS      float64
	// FaultSeconds and SteadySS are the same measurements under the fault
	// schedule (SteadySS over the completed operations only). TroughOp is
	// the slowest single operation of the faulted run — the depth of the
	// degradation while a fault window is active.
	FaultSeconds float64
	SteadySS     float64
	TroughOp     float64
	// RecoverySec is the virtual time from GPU restore until the first
	// operation whose rate regains RecoveryThreshold of HealthySS:
	// -1 means the run never recovered, 0 means no loss was scheduled.
	RecoverySec float64
	// Stalled reports the run died: the GPU context was lost and the
	// policy's runtime is not fault-aware. StallAtSec is the virtual time
	// of the fatal submission.
	Stalled    bool
	StallAtSec float64
	// OpsDone counts completed operations out of OpsTotal.
	OpsDone, OpsTotal int
	// OverheadPct compares the healthy run against an identical run with
	// an empty injector attached to every hook — the cost of wiring fault
	// injection without faults. Measured for the healthy scenario only.
	OverheadPct float64
}

// faultPolicy describes one partitioning policy under test.
type faultPolicy struct {
	name string
	// aware enables the runtime's GPU-loss fallback (only the adaptive
	// runtime is fault-aware: quarantine, CPU fallback, re-warm).
	aware bool
	// part builds the policy's partitioner for a fresh element; trained
	// policies capture pre-trained frozen state in the closure.
	part func(el *element.Element) adaptive.Partitioner
}

func faultPolicies(seed uint64, n, ops int) []faultPolicy {
	work := 2 * float64(n) * float64(n) * float64(n)
	adaptivePart := func(el *element.Element) adaptive.Partitioner {
		return adaptive.NewAdaptive(64, work, el.InitialGSplit(), el.CPU.NumCores())
	}
	staticPart := func(el *element.Element) adaptive.Partitioner {
		return adaptive.NewStatic(el.InitialGSplit(), el.CPU.NumCores())
	}
	// The trained policy learns its database on a healthy element once,
	// then runs frozen — the Qilin-style offline profile.
	trainEl := element.New(element.Config{Seed: seed, Virtual: true})
	trained := adaptive.NewTrained(64, work, trainEl.InitialGSplit(), trainEl.CPU.NumCores())
	trainRun := hybrid.New(trainEl, element.ACMLGBoth, trained)
	for i := 0; i < ops; i++ {
		trainRun.GemmVirtual(n, n, n, 1, trainEl.Now())
	}
	trained.Freeze()
	trainedPart := func(*element.Element) adaptive.Partitioner { return trained }

	return []faultPolicy{
		{name: "adaptive", aware: true, part: adaptivePart},
		{name: "static", aware: false, part: staticPart},
		{name: "qilin-trained", aware: false, part: trainedPart},
	}
}

// faultRun executes ops back-to-back GEMMs on a fresh element with the
// given injector attached, stopping early on a stall. It returns every
// completed report plus the stall position (-1 if none).
func faultRun(seed uint64, n, ops int, p faultPolicy, in *fault.Injector, tel *telemetry.Telemetry, label string) (reps []hybrid.Report, stallAt sim.Time, stalled bool) {
	el := element.New(element.Config{Seed: seed, Virtual: true})
	fault.Attach(in, el)
	part := adaptive.Instrument(p.part(el), tel)
	run := hybrid.New(el, element.ACMLGBoth, part)
	if p.aware {
		run.EnableGPUFaultFallback()
	}
	if tel.Enabled() {
		run.Instrument(tel)
		el.Instrument(tel, label)
	}
	tm := sim.Time(0)
	for i := 0; i < ops; i++ {
		rep := run.GemmVirtual(n, n, n, 1, tm)
		if rep.Stalled {
			return reps, rep.Start, true
		}
		reps = append(reps, rep)
		tm = rep.End
		if tel.Enabled() {
			tel.Trace.Sample(label+".gflops", rep.End, rep.GFLOPS())
		}
	}
	return reps, -1, false
}

// steadyState is the mean GFLOPS over the last quarter of the reports.
func steadyState(reps []hybrid.Report) float64 {
	if len(reps) == 0 {
		return 0
	}
	lo := len(reps) - (len(reps)+3)/4
	sum := 0.0
	for _, r := range reps[lo:] {
		sum += r.GFLOPS()
	}
	return sum / float64(len(reps)-lo)
}

// FaultSweep measures one fault scenario across the partitioning policies:
// each policy first runs fault-free (the reference), then under the
// scenario's event schedule scaled to the reference makespan. Telemetry
// (optional) receives per-operation GFLOPS samples, the injector's fault
// windows as trace spans, and the runtime's fault instants. The policies
// are independent (the trained policy's shared database is frozen before
// the sweep starts) and run on par workers; each policy's injector
// instruments that policy's isolated bundle, so metrics and traces merge
// back in policy order exactly as the serial sweep records them.
func FaultSweep(scenario string, seed uint64, n, ops int, tel *telemetry.Telemetry, par int) ([]FaultCell, error) {
	if _, err := fault.Scenario(scenario, 1); err != nil {
		return nil, err
	}
	type outcome struct {
		cell FaultCell
		err  error
	}
	results := sweep.MapTel(context.Background(), par, tel, faultPolicies(seed, n, ops),
		func(_ int, p faultPolicy, tel *telemetry.Telemetry) outcome {
			healthy, _, hStalled := faultRun(seed, n, ops, p, nil, telemetry.Disabled(), "")
			if hStalled {
				panic("experiments: healthy reference run stalled")
			}
			cell := FaultCell{
				Scenario:       scenario,
				Policy:         p.name,
				HealthySeconds: healthy[len(healthy)-1].End,
				HealthySS:      steadyState(healthy),
				OpsTotal:       ops,
				RecoverySec:    0,
			}

			in, err := fault.NewScenario(scenario, cell.HealthySeconds, seed)
			if err != nil {
				return outcome{err: err}
			}
			in.Instrument(tel)
			label := fmt.Sprintf("fault.%s.%s", scenario, p.name)
			reps, stallAt, stalled := faultRun(seed, n, ops, p, in, tel, label)
			cell.Stalled = stalled
			cell.StallAtSec = stallAt
			cell.OpsDone = len(reps)
			cell.SteadySS = steadyState(reps)
			if len(reps) > 0 {
				cell.FaultSeconds = reps[len(reps)-1].End
				cell.TroughOp = reps[0].GFLOPS()
				for _, r := range reps[1:] {
					if g := r.GFLOPS(); g < cell.TroughOp {
						cell.TroughOp = g
					}
				}
			}
			if restore, hasLoss := in.GPURestoreEnd(); hasLoss {
				cell.RecoverySec = -1
				for _, r := range reps {
					if r.End > restore && r.GFLOPS() >= RecoveryThreshold*cell.HealthySS {
						cell.RecoverySec = r.End - restore
						break
					}
				}
			}
			if scenario == "healthy" {
				// The empty injector runs through every hook; any drift from
				// the hookless reference is pure injection overhead.
				cell.OverheadPct = 100 * (cell.FaultSeconds - cell.HealthySeconds) / cell.HealthySeconds
			}
			return outcome{cell: cell}
		})
	cells := make([]FaultCell, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		cells = append(cells, r.cell)
	}
	return cells, nil
}

// NetStormResult compares an MPI workload on a healthy fabric against the
// flaky-net scenario (transient drops plus a cross-cabinet bandwidth
// collapse).
type NetStormResult struct {
	Ranks, Rounds  int
	HealthySeconds float64
	FaultSeconds   float64
	Drops, Retries int64
	SlowdownPct    float64
}

// NetStorm runs a bcast/allreduce/barrier mill over a two-cabinet world,
// healthy and then under flaky-net, and reports the virtual-time cost of
// the retry/backoff machinery. Deterministic in the seed.
func NetStorm(seed uint64, ranks, rounds int, tel *telemetry.Telemetry) (NetStormResult, error) {
	if ranks <= 1 {
		ranks = 16
	}
	if rounds <= 0 {
		rounds = 12
	}
	perCabinet := (ranks + 1) / 2
	workload := func(c *mpi.Comm) {
		payload := make([]float64, 4096)
		for r := 0; r < rounds; r++ {
			c.Advance(50e-6) // compute phase between collectives
			c.Bcast(0, 100+r, payload)
			c.AllreduceMax(200+r, float64(c.Rank()))
			c.Barrier(300 + r)
		}
	}
	healthy := mpi.NewWorld(mpi.Config{Size: ranks, RanksPerCabinet: perCabinet}).Run(workload)

	in, err := fault.NewScenario("flaky-net", healthy, seed)
	if err != nil {
		return NetStormResult{}, err
	}
	in.SetRanksPerCabinet(perCabinet)
	in.Instrument(tel)
	net := tel
	if !net.Enabled() {
		net = telemetry.New() // counters are part of the result
	}
	faulty := mpi.NewWorld(mpi.Config{
		Size:            ranks,
		RanksPerCabinet: perCabinet,
		LinkFault:       in,
		Telemetry:       net,
		Label:           "faultnet",
	}).Run(workload)

	return NetStormResult{
		Ranks:          ranks,
		Rounds:         rounds,
		HealthySeconds: healthy,
		FaultSeconds:   faulty,
		Drops:          net.Counter("faultnet.msgs_dropped").Value(),
		Retries:        net.Counter("faultnet.msgs_retried").Value(),
		SlowdownPct:    100 * (faulty - healthy) / healthy,
	}, nil
}

// FailoverResult compares Linpack failover strategies under an element
// failure at half the healthy makespan.
type FailoverResult struct {
	N             int
	Healthy       linpacksim.Result
	Scratch       linpacksim.Result // restart from iteration zero
	Checkpointed  linpacksim.Result // per-iteration checkpoints
	ScratchPct    float64           // slowdown vs healthy
	CheckpointPct float64
}

// Failover measures the element-fail scenario on the Linpack simulation:
// a healthy run sets the baseline, then the same run is killed at half
// time and recovered from scratch and from per-iteration checkpoints. The
// healthy run must finish first (it sets the failure instant); the two
// recovery runs are independent and execute on par workers.
func Failover(seed uint64, n int, tel *telemetry.Telemetry, par int) FailoverResult {
	if n <= 0 {
		n = 9728
	}
	base := linpacksim.Config{N: n, Variant: element.ACMLGBoth, Seed: seed, Telemetry: tel}
	healthy := linpacksim.Run(base)

	recovered := sweep.MapTel(context.Background(), par, tel, []bool{false, true},
		func(_ int, checkpoint bool, tel *telemetry.Telemetry) linpacksim.Result {
			cfg := base
			cfg.FailAt = sim.Time(healthy.Seconds * 0.5)
			cfg.Checkpoint = checkpoint
			cfg.Telemetry = tel
			return linpacksim.Run(cfg)
		})
	scratch, ckpt := recovered[0], recovered[1]

	return FailoverResult{
		N:             n,
		Healthy:       healthy,
		Scratch:       scratch,
		Checkpointed:  ckpt,
		ScratchPct:    100 * (scratch.Seconds - healthy.Seconds) / healthy.Seconds,
		CheckpointPct: 100 * (ckpt.Seconds - healthy.Seconds) / healthy.Seconds,
	}
}
