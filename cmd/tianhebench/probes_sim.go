package main

import (
	"fmt"

	"tianhe"
	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/matrix"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/stencil"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

// luRun is one Scheduler.Run of a virtual whole-factorization LU graph.
// prep rebuilds the graph and its element before every run, because bookings
// accumulate on the element; only run is timed.
type luRun struct {
	seed   uint64
	n, nb  int
	hybrid bool

	g   *taskgraph.Graph
	sch *taskgraph.Scheduler
	err error
}

func (l *luRun) prep() {
	el := virtualElement(l.seed)
	l.g = hpl.BuildLUGraph(l.n, nil, nil, el, nil, hpl.GraphOptions{NB: l.nb, Lookahead: 1, Hybrid: l.hybrid})
	var opts taskgraph.Options
	if l.hybrid {
		opts.RateSeeds = hpl.GraphRateSeeds(el, l.nb)
	}
	l.sch = taskgraph.NewScheduler(el, opts)
}

func (l *luRun) run() {
	rep, err := l.sch.Run(l.g, 0)
	if err == nil && rep.Tasks != l.g.Len() {
		err = fmt.Errorf("placed %d of %d tasks", rep.Tasks, l.g.Len())
	}
	if err != nil {
		l.err = err
	}
}

func probeTaskgraph(e env, out values) error {
	hyb := &luRun{seed: e.seed, n: simN, nb: simNB, hybrid: true}
	out["taskgraph.run_ns_per_task_lu_hyb"] = 1e9 * timeIt(hyb.prep, hyb.run) / float64(hyb.g.Len())
	// Per-task cost grows with graph size; 89k tasks is the mid point.
	big := &luRun{seed: e.seed, n: 16384, nb: 256}
	out["taskgraph.run_ns_per_task_89k"] = 1e9 * timeIt(big.prep, big.run) / float64(big.g.Len())
	lu := &luRun{seed: e.seed, n: simN, nb: simNB}
	lu.prep()
	out["taskgraph.run_allocs_per_task_lu"] = mallocsPer(1, lu.run) / float64(lu.g.Len())
	for _, l := range []*luRun{hyb, big, lu} {
		if l.err != nil {
			return fmt.Errorf("LU graph n=%d nb=%d hybrid=%v: %w", l.n, l.nb, l.hybrid, l.err)
		}
	}
	return nil
}

// fig8 is the Figure 8 inner loop: three hybrid DGEMMs at N=12288 on a
// fresh ACMLG+both element. attach and wrap, when not nil, dress the element
// and the partitioner with the seams whose idle cost a probe prices.
func fig8(seed uint64, attach func(*element.Element), wrap func(adaptive.Partitioner) adaptive.Partitioner) hybrid.Report {
	const n = 12288
	el := virtualElement(seed)
	if attach != nil {
		attach(el)
	}
	var part adaptive.Partitioner = adaptive.NewAdaptive(64, 2.0*n*n*n, el.InitialGSplit(), el.CPU.NumCores())
	if wrap != nil {
		part = wrap(part)
	}
	run := hybrid.New(el, element.ACMLGBoth, part)
	var rep hybrid.Report
	for i := 0; i < 3; i++ {
		rep = run.GemmVirtual(n, n, n, 1, el.Now())
	}
	return rep
}

func probeElementModel(e env, out values) error {
	out["pipeline.plan_us"] = 1e6 * timeIt(nil, func() { pipeline.NewPlan(40000, 40000, simNB, 5376, true) })

	var el *element.Element
	fresh := func() { el = virtualElement(e.seed) }
	out["pipeline.execute_virtual_us"] = 1e6 * timeIt(fresh, func() {
		pipeline.NewExecutor(el.GPU, pipeline.Pipelined()).ExecuteVirtual(12288, 12288, 12288, 1, 0)
	})

	var rep hybrid.Report
	out["hybrid.gemm_virtual_us"] = 1e6 * timeIt(nil, func() { rep = fig8(e.seed, nil, nil) }) / 3
	out["hybrid.vgflops_12288"] = rep.GFLOPS()

	// A real (computing) hybrid DGEMM on a scaled-down element.
	small := element.New(element.Config{Seed: e.seed, JitterSigma: -1, GPUMem: 8 << 20, GPUTexture: 256})
	runner := tianhe.NewRunner(small, tianhe.ACMLGBoth)
	rng := sim.NewStream(e.seed, "tianhebench/hybrid")
	a, b, c := randomDense(rng, 320, 320), randomDense(rng, 320, 320), matrix.NewDense(320, 320)
	out["hybrid.gemm_real_ms_320"] = 1e3 * timeIt(nil, func() { runner.Gemm(1, a, b, 0, c, small.Now()) })

	// One database lookup plus one feedback update, the Section IV
	// bookkeeping; a thousand per call so the clock resolves it.
	db := adaptive.NewAdaptive(64, 1e13, 0.889, 3)
	obs := adaptive.Observation{
		Work: 1e10, GSplit: 0.889, TG: 0.05, TC: 0.05,
		CoreWorks: []float64{1, 1, 1}, CoreTimes: []float64{1, 1, 1},
	}
	out["adaptive.lookup_update_ns"] = 1e9 * timeIt(nil, func() {
		for i := 0; i < 1000; i++ {
			_ = db.GSplit(obs.Work)
			db.Observe(obs)
		}
	}) / 1000

	const events = 10000
	var tl *sim.Timeline
	out["sim.timeline_bookings_per_s"] = events / timeIt(func() { tl = sim.NewTimeline("probe") }, func() {
		for i := 0; i < events; i++ {
			tl.Book("op", 0, 1e-6)
		}
	})
	var eng *sim.Engine
	fired := 0
	out["sim.engine_events_per_s"] = events / timeIt(func() {
		eng = sim.NewEngine()
		for i := 0; i < events; i++ {
			// Reverse order, so the heap has to sift.
			eng.At(sim.Time(events-i), func() { fired++ })
		}
	}, func() { eng.Run() })
	if fired == 0 || fired%events != 0 {
		return fmt.Errorf("sim.Engine fired %d events, want a multiple of %d", fired, events)
	}
	return nil
}

func probeGuards(e env, out values) error {
	rng := sim.NewStream(e.seed, "tianhebench/abft")
	a, b := randomDense(rng, 1024, 64), randomDense(rng, 64, 1024)
	c := matrix.NewDense(1024, 1024)
	chk := abft.Expect(1, a, b, 0, nil)
	// c is not the product; only the pass over its bytes is timed.
	out["abft.verify_mb_per_s"] = 8 * 1024 * 1024 / timeIt(nil, func() { abft.Verify(c, chk) }) / 1e6

	// The hooks' price when nothing is scheduled: an attached empty
	// injector against no injector, and the nil telemetry bundle routed
	// through every seam against never touching telemetry.
	plain := func() { fig8(e.seed, nil, nil) }
	out["fault.hook_overhead_pct"] = overheadOf(plain, func() {
		fig8(e.seed, func(el *element.Element) { fault.Attach(fault.New(e.seed), el) }, nil)
	})
	out["telemetry.disabled_overhead_pct"] = overheadOf(plain, func() {
		fig8(e.seed, nil, func(p adaptive.Partitioner) adaptive.Partitioner {
			return adaptive.Instrument(p, telemetry.Disabled())
		})
	})

	// Enabled telemetry on a whole sim-element pass — ROADMAP item 5's
	// ledger row.
	var pass [2]passFunc
	var err error
	for i, newTel := range []func() *telemetry.Telemetry{telemetry.Disabled, telemetry.New} {
		if pass[i], err = setupSimElement(e, newTel); err != nil {
			return err
		}
	}
	out["telemetry.enabled_overhead_pct"] = overheadOf(func() { _, err = pass[0](nil) }, func() {
		if _, e := pass[1](nil); e != nil {
			err = e
		}
	})
	return err
}

func probeStencil(e env, out values) error {
	out["stencil.reference_ms_128"] = 1e3 * timeIt(nil, func() { stencil.Reference(stencilReal(e.seed, false)) })

	var g *taskgraph.Graph
	var sch *taskgraph.Scheduler
	var err error
	sec := timeIt(func() {
		g = stencil.NewVirtual(stencilVirtual(e.seed, 8, false)).Graph()
		sch = taskgraph.NewScheduler(virtualElement(e.seed), taskgraph.Options{})
	}, func() { _, err = sch.Run(g, 0) })
	out["taskgraph.run_ns_per_task_stencil"] = 1e9 * sec / float64(g.Len())
	return err
}
