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
	Mode string
	// Lookahead is the depth (-1 for the monolithic baseline).
	Lookahead int
	// Hybrid marks that update codelets carried the split CPU+GPU body.
	Hybrid  bool
	Seconds float64
	GFLOPS  float64
	// GainPct is the GFLOPS gain over the monolithic baseline.
	GainPct float64
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
