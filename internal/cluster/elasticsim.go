package cluster

import (
	"tianhe/internal/hpl"
	"tianhe/internal/linpacksim"
	"tianhe/internal/mpi"
	"tianhe/internal/perfmodel"
)

// Analytic twin of the elastic solver at petascale sizes the real arithmetic
// cannot reach (internal/recover documents the protocol; SolveElastic is the
// executable small-N proof of its bit-exactness). The model books the same
// per-iteration structure — panel, broadcast, per-element hybrid trailing
// update, heartbeat round, parity-column encode — and, on failure, the same
// three-phase recovery: detect (bounded suspicion plus the verdict round),
// rebuild (parity XOR for the victim's factored columns, deterministic
// replay for its trailing ones, spread over the adopting survivors), and
// re-encode under the shrunk striping. Alongside it books what the PR 3
// checkpoint/restart path would charge for the same failure, so the two
// strategies are always reported against each other.

// ElasticSimConfig describes one modeled elastic run.
type ElasticSimConfig struct {
	N, NB    int
	Elements int // Q elements in the 1-D column block-cyclic layout
	// Parity books the steady-state checksum encoding (one column shipped
	// and folded per iteration). Off gives the clean baseline the encoding
	// overhead is measured against.
	Parity bool
	// FailFrac kills one element when the run's clock passes this fraction
	// of the healthy makespan; zero runs healthy. The victim owns an
	// average share of columns (the model does not pick a specific rank).
	FailFrac float64
}

// ElasticSimResult reports one modeled run, with the checkpoint/restart
// alternative for the same failure alongside.
type ElasticSimResult struct {
	N, NB, Elements int
	Iterations      int
	Seconds         float64
	GFLOPS          float64

	// EncodeSeconds is the steady-state parity cost inside Seconds;
	// HeartbeatSeconds the failure-detection cost inside Seconds.
	EncodeSeconds    float64
	HeartbeatSeconds float64

	// FailIter is the iteration boundary where the failure strikes (-1 when
	// healthy) and RecoverySeconds the elastic recovery stall charged there:
	// detection, parity rebuilds, replays, re-encode.
	FailIter        int
	RecoverySeconds float64
	// CheckpointRedoSeconds is what the PR 3 per-iteration checkpoint path
	// would charge for the same failure: the outage and relaunch, the
	// checkpoint reload, and the redo of the iteration in flight.
	// CheckpointSteadySeconds is that path's steady-state cost over the same
	// run — the per-iteration incremental checkpoint writes.
	CheckpointRedoSeconds   float64
	CheckpointSteadySeconds float64
}

// SimulateElastic runs the analytic elastic model.
func SimulateElastic(cfg ElasticSimConfig) ElasticSimResult {
	q := cfg.Elements
	nb := cfg.NB
	nblocks := cfg.N / nb
	gpu := perfmodel.DefaultGPU()
	transfer := perfmodel.DefaultTransfer()
	net := perfmodel.DefaultNetwork()
	crossCabinet := q > 64
	cpuRate := float64(perfmodel.ComputeCores) * perfmodel.CPUCoreGFLOPS * 1e9
	colBytes := int64(8 * cfg.N * nb)
	linkSec := func(b int64) float64 { return net.Seconds(b, crossCabinet) }

	res := ElasticSimResult{N: cfg.N, NB: nb, Elements: q, FailIter: -1}

	// Per-iteration times of the healthy loop, kept so the failure boundary
	// and the redo cost can be located exactly.
	iter := make([]float64, nblocks)
	for k := 0; k < nblocks; k++ {
		trailing := cfg.N - (k+1)*nb
		m := cfg.N - k*nb
		res.Iterations++

		var t float64
		if trailing > 0 {
			// Per-element trailing update: the local share of the trailing
			// columns through the hybrid CPU+GPU path, GPU pipelined.
			nloc := trailing / q
			if nloc > 0 {
				w := 2 * float64(trailing) * float64(nloc) * float64(nb)
				gpuSec := pipelinedGPUSeconds(trailing, nloc, nb, gpu, transfer)
				rg := w / gpuSec
				t = w / (rg + cpuRate)
			}
			// Look-ahead: only the panel's excess over the update surfaces.
			panelSec := float64(nb) * float64(nb) * (float64(m) + float64(nb)/3) / (perfmodel.HostPanelGFLOPS * 1e9)
			if panelSec > t {
				t = panelSec
			}
		}
		// Panel broadcast across the group.
		t += net.BcastSeconds(int64(8*(m+nb)*nb), q, crossCabinet)
		// Heartbeat round: pings in, verdicts out — two small-message waves.
		hb := 2 * net.BcastSeconds(64, q, crossCabinet)
		t += hb
		res.HeartbeatSeconds += hb
		// Parity encode: the finished column ships point-to-point to its
		// stripe holder and is folded at memory rate. The ship and the fold
		// overlap the iteration's other work (the group only synchronizes at
		// broadcasts; a column still in flight at a failure boundary is
		// simply not yet parity-protected and rebuilds from the broadcast
		// prefix like any trailing column), so only the excess of the encode
		// pipeline over the iteration lands on the critical path.
		if cfg.Parity && q >= 2 {
			enc := linkSec(colBytes) + float64(colBytes)/(perfmodel.HostMemGBps*1e9)
			if enc > t {
				res.EncodeSeconds += enc - t
				t = enc
			}
		}
		iter[k] = t
		res.Seconds += t
	}

	// PR 3 steady state for the same run: one incremental panel checkpoint
	// per iteration.
	res.CheckpointSteadySeconds = float64(nblocks) * 8 * float64(cfg.N) * float64(nb) / linpacksim.CheckpointBandwidth

	if cfg.FailFrac > 0 && q >= 3 {
		// Locate the failure boundary on the healthy clock.
		target := cfg.FailFrac * res.Seconds
		var acc float64
		kf := nblocks - 1
		for k, t := range iter {
			if acc >= target {
				kf = k
				break
			}
			acc += t
		}
		res.FailIter = kf

		// The victim's columns, average share, split at the boundary.
		lostFactored := kf / q
		lostTrailing := (nblocks - kf) / q
		adopters := q - 1

		// Detect: bounded suspicion plus the verdict round.
		rec := float64(mpi.SuspicionBound) + float64(2*net.BcastSeconds(64, adopters, crossCabinet))
		// Parity rebuilds: each lost factored column re-materializes at its
		// adopter from the stripe's surviving members plus the parity block —
		// q-1 column transfers and folds, columns spread round-robin over the
		// adopters so only the per-adopter share serializes.
		perAdopterPar := (lostFactored + adopters - 1) / adopters
		rec += float64(float64(perAdopterPar) * float64(q-1) *
			(linkSec(colBytes) + float64(colBytes)/(perfmodel.HostMemGBps*1e9)))
		// Replays: each lost trailing column regenerates and re-applies the
		// kf factored iterations' GEMMs on the adopter's GPU at a flat rate;
		// the panel history ships once per adopter (the factored prefix, pipelined).
		const replayRate = 80e9 // flops/s
		var replayFlops float64
		for i := 0; i < kf; i++ {
			m := cfg.N - i*nb
			if m > nb {
				replayFlops += float64(2 * float64(m-nb) * float64(nb) * float64(nb))
			}
		}
		perAdopterRep := (lostTrailing + adopters - 1) / adopters
		rec += float64(float64(kf) * linkSec(colBytes))
		rec += float64(perAdopterRep) * replayFlops / replayRate
		// Re-encode: stripes that lost their holder plus the rebuilt columns'
		// new stripes re-fold from live columns.
		reencode := kf/adopters + lostFactored
		rec += float64(float64(reencode) * (linkSec(colBytes) + float64(colBytes)/(perfmodel.HostMemGBps*1e9)))
		res.RecoverySeconds = rec
		res.Seconds += rec

		// The PR 3 alternative for the same failure: outage + relaunch, the
		// checkpoint reload, and the redo of the iteration in flight.
		res.CheckpointRedoSeconds = float64(linpacksim.DefaultRestartSec) +
			8*float64(cfg.N)*float64(nb)/linpacksim.CheckpointBandwidth + iter[kf]
	}

	res.GFLOPS = hpl.LinpackFlops(cfg.N) / res.Seconds / 1e9
	return res
}
