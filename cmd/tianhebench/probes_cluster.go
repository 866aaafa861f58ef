package main

import (
	"context"
	"fmt"

	"tianhe"
	"tianhe/internal/cluster"
	"tianhe/internal/mpi"
	rcv "tianhe/internal/recover"
	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
)

func probeClusterReal(e env, out values) error {
	var healthy, bare cluster.ElasticResult
	var err error
	out["cluster.elastic_healthy_ms_768"] = 1e3 * timeIt(nil, func() {
		healthy, err = cluster.SolveElastic(elasticBase(e.seed))
	})
	if err != nil {
		return err
	}
	noParity := elasticBase(e.seed)
	noParity.DisableParity = true
	if bare, err = cluster.SolveElastic(noParity); err != nil {
		return err
	}
	out["cluster.elastic_virt_overhead_pct"] = overheadPct(bare.Seconds, healthy.Seconds)
	return nil
}

func probeMPI(e env, out values) error {
	// Host cost of the in-process substrate: a world is built and torn down
	// around every exchange, as the solvers do per solve.
	payload := make([]float64, 64<<10/8)
	out["mpi.sendrecv_us"] = 1e6 * timeIt(nil, func() {
		mpi.NewWorld(mpi.Config{Size: 2}).Run(func(c *mpi.Comm) {
			c.SendRecv(1-c.Rank(), 1, 1, payload)
		})
	})
	panel := make([]float64, distN*distNB)
	var virt sim.Time
	out["mpi.bcast_us_4"] = 1e6 * timeIt(nil, func() {
		virt = mpi.NewWorld(mpi.Config{Size: distRanks}).Run(func(c *mpi.Comm) {
			var data []float64
			if c.Rank() == 0 {
				data = panel
			}
			c.Bcast(0, 1, data)
		})
	})
	out["mpi.virt_bcast_us_4"] = 1e6 * virt
	return nil
}

func probeRecover(e env, out values) error {
	rng := sim.NewStream(e.seed, "tianhebench/recover")
	dst, src := make([]float64, distN*distNB), make([]float64, distN*distNB)
	for i := range src {
		dst[i], src[i] = rng.Float64(), rng.Float64()
	}
	out["recover.xor_mb_per_s"] = float64(8*len(src)) / timeIt(nil, func() { rcv.XORInto(dst, src) }) / 1e6

	members := rcv.NewMembership(distRanks)
	layout := rcv.Cyclic(distN/distNB, members.Live)
	var plan rcv.Plan
	out["recover.makeplan_us"] = 1e6 * timeIt(nil, func() { plan = rcv.MakePlan(members, layout, []int{1}, distN/distNB/2) })
	if len(plan.Rebuilds) == 0 {
		return fmt.Errorf("recover.MakePlan: no rebuilds for a dead owner")
	}

	failures := 0
	out["recover.heartbeat_us_4"] = 1e6 * timeIt(nil, func() {
		mpi.NewWorld(mpi.Config{Size: distRanks}).Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				failures += len(rcv.Heartbeat(c, members.Live, 100, 101))
			} else {
				rcv.Heartbeat(c, members.Live, 100, 101)
			}
		})
	})
	if failures != 0 {
		return fmt.Errorf("recover.Heartbeat saw %d failures in a healthy world", failures)
	}
	return nil
}

func probeClusterModel(e env, out values) error {
	serial := timeIt(nil, func() { tianhe.SimulateScale(scaleConfig(e.seed, 80, 1)) })
	parallel := timeIt(nil, func() { tianhe.SimulateScale(scaleConfig(e.seed, 80, e.par)) })
	out["cluster.scale_par_speedup"] = serial / parallel
	return nil
}

func probeSweep(e env, out values) error {
	pts := make([]int, 4096)
	out["sweep.map_ns_per_point"] = 1e9 * timeIt(nil, func() {
		sweep.Map(context.Background(), e.par, pts, func(i int, _ int) uint64 { return sweep.Seed(e.seed, i) })
	}) / float64(len(pts))
	return nil
}

func probeServe(e env, out values) error {
	cfg := loadgen.Config{Seed: e.seed, Clients: ladderClients, Rate: ladderHeadline, Horizon: ladderHorizon}
	var trace []loadgen.Arrival
	sec := timeIt(nil, func() { trace = loadgen.Generate(cfg) })
	out["loadgen.generate_arrivals_per_s"] = float64(len(trace)) / sec

	var err error
	out["serve.allocs_per_job"] = mallocsPer(1, func() { _, err = replayRung(e.seed, trace, "", 0) }) / float64(len(trace))
	if err != nil {
		return err
	}

	wire, err := serve.MarshalRequest(trace[0].Req)
	if err != nil {
		return err
	}
	out["serve.codec_ns_per_request"] = 1e9 * timeIt(nil, func() {
		for i := 0; i < 1000; i++ {
			_, _, err = serve.ParseRequest(wire, serve.Limits{})
		}
	}) / 1000
	return err
}
