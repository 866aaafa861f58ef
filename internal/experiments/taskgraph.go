package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/element"
	"tianhe/internal/linpacksim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// GraphLUDepths is the look-ahead sweep of the graph-LU study.
var GraphLUDepths = []int{0, 1, 2}

// GraphLUCell is one scheduling-mode point of GraphLU.
type GraphLUCell struct {
	// Mode names the point: "monolithic" for the bulk-synchronous iteration
	// loop, "graph-d<k>" for the dataflow runtime at look-ahead depth k,
	// "graph-d<k>+hyb" with the hybrid codelet variant armed.
	Mode string `json:"mode"`
	// Lookahead is the depth (-1 for the monolithic baseline).
	Lookahead int `json:"lookahead"`
	// Hybrid marks that update codelets carried the split CPU+GPU body.
	Hybrid  bool    `json:"hybrid"`
	Seconds float64 `json:"seconds"`
	GFLOPS  float64 `json:"gflops"`
	// GainPct is the GFLOPS gain over the monolithic baseline.
	GainPct float64 `json:"gain_pct"`
}

// GraphLU compares the monolithic Linpack iteration against the same
// factorization expressed as a task graph at each look-ahead depth, at one
// problem size. The modes are independent simulated runs on par workers;
// output is byte-identical for every par.
func GraphLU(seed uint64, n int, depths []int, tel *telemetry.Telemetry, par int) []GraphLUCell {
	if n <= 0 {
		n = 46080
	}
	if depths == nil {
		depths = GraphLUDepths
	}
	type point struct {
		mode      string
		lookahead int
		hybrid    bool
	}
	pts := []point{{mode: "monolithic", lookahead: -1}}
	for _, d := range depths {
		pts = append(pts, point{mode: fmt.Sprintf("graph-d%d", d), lookahead: d})
	}
	// The hybrid row: depth-1 look-ahead with the split CPU+GPU update body,
	// the variant that closes the graph runtime's gap to the monolithic loop.
	pts = append(pts, point{mode: "graph-d1+hyb", lookahead: 1, hybrid: true})
	cells := sweep.MapTel(context.Background(), par, tel, pts,
		func(_ int, p point, tel *telemetry.Telemetry) GraphLUCell {
			cfg := linpacksim.Config{
				N: n, NB: 1216, Variant: element.ACMLGBoth, Seed: seed,
				Telemetry: tel,
			}
			if p.lookahead >= 0 {
				cfg.Graph = true
				cfg.Lookahead = p.lookahead
				cfg.GraphHybrid = p.hybrid
			}
			res := linpacksim.Run(cfg)
			return GraphLUCell{
				Mode:      p.mode,
				Lookahead: p.lookahead,
				Hybrid:    p.hybrid,
				Seconds:   res.Seconds,
				GFLOPS:    res.GFLOPS,
			}
		})
	base := cells[0].GFLOPS
	for i := range cells {
		cells[i].GainPct = 100 * (cells[i].GFLOPS - base) / base
	}
	return cells
}

// GraphLUBenchSchema versions the BENCH_graphlu.json artifact.
const GraphLUBenchSchema = "tianhe/graphlu-bench/v1"

// GraphLUBenchResult is the committed graph-LU perf-trajectory artifact
// (BENCH_graphlu.json): the monolithic baseline against the dataflow runtime
// at each look-ahead depth plus the hybrid-variant row, at the Fig-6 problem
// size. Every number is virtual-time and regenerates bit-identically from
// the seed, so any drift between a fresh run and the committed baseline is a
// real code change, not measurement noise — the same perf-trajectory pattern
// BENCH_serve.json establishes for the solver service.
type GraphLUBenchResult struct {
	Schema string        `json:"schema"`
	Seed   uint64        `json:"seed"`
	N      int           `json:"n"`
	Cells  []GraphLUCell `json:"cells"`
}

// GraphLUBench runs the full monolithic-vs-graph comparison at order n
// (<= 0 selects the Fig-6 size GraphLU defaults to).
func GraphLUBench(seed uint64, n, par int) GraphLUBenchResult {
	if n <= 0 {
		n = 46080
	}
	cells := GraphLU(seed, n, nil, telemetry.Disabled(), par)
	return GraphLUBenchResult{Schema: GraphLUBenchSchema, Seed: seed, N: n, Cells: cells}
}

// GraphLURegression compares a fresh benchmark against the committed
// baseline: every mode's GFLOPS must stay within tolPct percent of the
// baseline cell. Improvements always pass; modes added since the baseline
// was committed are ignored until it is regenerated.
func GraphLURegression(current, baseline GraphLUBenchResult, tolPct float64) error {
	var fails []string
	floor := 1 - tolPct/100
	base := make(map[string]GraphLUCell, len(baseline.Cells))
	for _, c := range baseline.Cells {
		base[c.Mode] = c
	}
	for _, c := range current.Cells {
		b, ok := base[c.Mode]
		if !ok {
			continue
		}
		if c.GFLOPS < floor*b.GFLOPS {
			fails = append(fails, fmt.Sprintf("%s: %.2f GFLOPS fell >%.0f%% below baseline %.2f",
				c.Mode, c.GFLOPS, tolPct, b.GFLOPS))
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("graph-LU bench regression: %v", fails)
}
