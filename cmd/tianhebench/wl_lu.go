package main

import (
	"fmt"
	"math"

	"tianhe"
	"tianhe/internal/blas"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/taskgraph"
)

// --- lu-real: real arithmetic on one element ---

const (
	luN  = 1024
	luNB = 64
)

// luElement is the scaled compute element the real graph factorization is
// placed on: a small device, so N=1024 still makes multi-tile residency. Its
// host noise is turned down (no per-call jitter, 0.2% core bias): on a 34 ms
// simulated run the default noise flips enough placements to move the
// makespan by 3% from seed to seed, which would force a bound that wide on
// virt_makespan_s everywhere.
func luElement(seed uint64) *element.Element {
	return element.New(element.Config{Seed: seed, GPUMem: 64 << 20, GPUTexture: 512, JitterSigma: -1, BiasSpread: 0.002})
}

func luGraphOptions(par int) hpl.GraphOptions {
	return hpl.GraphOptions{NB: luNB, Lookahead: 1, Hybrid: true, Sched: taskgraph.Options{Par: par}}
}

func setupLUReal(e env) (passFunc, error) {
	// Reference check, once: the graph factorization's factors and pivots
	// equal the monolithic ones bit for bit. Each pass then compares the two
	// solutions, which are a function of exactly those factors and pivots.
	a, _ := hpl.Generate(luN, e.seed)
	mono, graph := a.Clone(), a.Clone()
	monoPiv, graphPiv := make([]int, luN), make([]int, luN)
	if err := hpl.Dgetrf(mono, monoPiv, hpl.Options{NB: luNB}); err != nil {
		return nil, err
	}
	if _, err := hpl.GraphDgetrf(graph, graphPiv, luElement(e.seed), luGraphOptions(e.par)); err != nil {
		return nil, err
	}
	if !mono.Equal(graph) {
		return nil, fmt.Errorf("GraphDgetrf factors differ from Dgetrf")
	}
	for i := range monoPiv {
		if monoPiv[i] != graphPiv[i] {
			return nil, fmt.Errorf("GraphDgetrf pivot %d = %d, Dgetrf has %d", i, graphPiv[i], monoPiv[i])
		}
	}

	return func(rec *recorder) (values, error) {
		opts := tianhe.LinpackOptions{NB: luNB}
		if rec != nil {
			// The traced run watches the trailing updates through the
			// Options.Gemm seam; the body is the default the seam replaces.
			opts.Gemm = func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
				done := rec.begin("blas.DgemmParallel")
				blas.DgemmParallel(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c, 1)
				done()
				rec.count("blas.dgemm_calls", 1)
			}
		}
		done := rec.begin("hpl.Run")
		plain, err := tianhe.RunLinpack(luN, e.seed, opts)
		done()
		if err != nil {
			return nil, err
		}
		done = rec.begin("hpl.GraphRun")
		graph, rep, err := hpl.GraphRun(luN, e.seed, luElement(e.seed), luGraphOptions(e.par))
		done()
		if err != nil {
			return nil, err
		}
		if err := checkResidual("hpl.Run", plain.Residual, plain.Passed); err != nil {
			return nil, err
		}
		if err := checkResidual("hpl.GraphRun", graph.Residual, graph.Passed); err != nil {
			return nil, err
		}
		if !sameBits(plain.X, graph.X) {
			return nil, fmt.Errorf("graph solution differs bitwise from the monolithic one")
		}
		return values{
			"virt_makespan_s":  rep.Seconds(),
			"hpl.residual_max": math.Max(plain.Residual, graph.Residual),
			"hpl.graph_tasks":  float64(rep.Tasks),
		}, nil
	}, nil
}

// --- lu-dist: real arithmetic across four ranks ---

const (
	distN     = 768
	distNB    = 64
	distRanks = 4
)

func elasticBase(seed uint64) cluster.ElasticConfig {
	return cluster.ElasticConfig{N: distN, NB: distNB, Ranks: distRanks, Seed: seed}
}

func setupLUDist(e env) (passFunc, error) {
	// The death strikes halfway through the healthy run, so the healthy
	// makespan is measured here, once.
	healthy, err := cluster.SolveElastic(elasticBase(e.seed))
	if err != nil {
		return nil, fmt.Errorf("healthy elastic solve: %w", err)
	}
	failing := elasticBase(e.seed)
	failing.Failures = []cluster.FailureSpec{{Rank: 1, At: 0.5 * healthy.Seconds}}

	return func(rec *recorder) (values, error) {
		done := rec.begin("cluster.SolveDistributed2D")
		d2, err := tianhe.SolveDistributed2D(tianhe.Distributed2DConfig{
			N: distN, NB: distNB, P: 2, Q: 2, Seed: e.seed, Variant: tianhe.ACMLGBoth, Lookahead: true,
		})
		done()
		if err != nil {
			return nil, err
		}
		done = rec.begin("cluster.SolveDistributed")
		d1, err := tianhe.SolveDistributed(tianhe.DistributedConfig{
			N: distN, NB: distNB, Ranks: distRanks, Seed: e.seed, Variant: tianhe.ACMLGBoth,
		})
		done()
		if err != nil {
			return nil, err
		}
		done = rec.begin("cluster.SolveElastic")
		el, err := cluster.SolveElastic(failing)
		done()
		if err != nil {
			return nil, err
		}
		if err := checkResidual("SolveDistributed2D", d2.Residual, d2.Passed); err != nil {
			return nil, err
		}
		if err := checkResidual("SolveDistributed", d1.Residual, d1.Passed); err != nil {
			return nil, err
		}
		if err := checkResidual("SolveElastic (recovered)", el.Residual, el.Passed); err != nil {
			return nil, err
		}
		if len(el.RecoverySeconds) != 1 || len(el.Failed) != 1 {
			return nil, fmt.Errorf("SolveElastic: want one recovered death, got failed=%v recovery=%v", el.Failed, el.RecoverySeconds)
		}
		return values{
			"virt_makespan_s":              d2.Seconds,
			"virt_recovery_s":              el.RecoverySeconds[0],
			"cluster.dist2d_vgflops":       d2.GFLOPS,
			"cluster.elastic_parity_bytes": float64(el.ParityBytes),
		}, nil
	}, nil
}
