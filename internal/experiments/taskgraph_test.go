package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/linpacksim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// TestGraphLUGain: the graph-LU study at a reduced size still orders the
// modes correctly — depth 1 beats depth 0 (the look-ahead win the monolithic
// loop cannot express) and the baseline gain is 0 by construction.
func TestGraphLUGain(t *testing.T) {
	cells := GraphLU(DefaultSeed, 14592, nil, telemetry.Disabled(), 4)
	if len(cells) != 2+len(GraphLUDepths) {
		t.Fatalf("%d cells, want %d", len(cells), 2+len(GraphLUDepths))
	}
	if cells[0].Mode != "monolithic" || cells[0].GainPct != 0 {
		t.Fatalf("baseline cell %+v", cells[0])
	}
	byMode := map[string]GraphLUCell{}
	for _, c := range cells {
		if c.Seconds <= 0 || c.GFLOPS <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
		byMode[c.Mode] = c
	}
	if d0, d1 := byMode["graph-d0"], byMode["graph-d1"]; d1.GFLOPS <= d0.GFLOPS {
		t.Errorf("look-ahead 1 (%v GFLOPS) did not beat depth 0 (%v GFLOPS)", d1.GFLOPS, d0.GFLOPS)
	}
	if d1, hyb := byMode["graph-d1"], byMode["graph-d1+hyb"]; hyb.GFLOPS <= d1.GFLOPS {
		t.Errorf("hybrid variant (%v GFLOPS) did not beat whole-device placement (%v GFLOPS)",
			hyb.GFLOPS, d1.GFLOPS)
	}
}

// TestParDeterminismGraphLU is the graph-LU determinism golden: the
// monolithic-vs-graph comparison (including the hybrid-variant row) must
// render byte-identically at -par 1 and -par 8. Runs under -race in
// scripts/check.sh.
func TestParDeterminismGraphLU(t *testing.T) {
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		cells := GraphLU(DefaultSeed, 9728, []int{0, 1}, tel, par)
		var buf bytes.Buffer
		for _, c := range cells {
			fmt.Fprintf(&buf, "%+v\n", c)
		}
		return buf.Bytes(), telBytes(t, tel)
	}
	cells1, tel1 := run(1)
	cells8, tel8 := run(8)
	diffBytes(t, "GraphLU cells", cells1, cells8)
	diffBytes(t, "GraphLU telemetry", tel1, tel8)
}

// TestParDeterminismGraphLUHybridFaults pins the fault composition on hybrid
// graph runs: under lost-gpu the hybrid body must degrade to its CPU half and
// re-warm, under sdc-* the split update must verify both halves, and the
// composed scenario layers both — all byte-identical (cells, metrics, trace
// JSON) between the serial loop and the worker pool. Runs under -race in
// scripts/check.sh.
func TestParDeterminismGraphLUHybridFaults(t *testing.T) {
	const n = 9728
	base := linpacksim.Config{
		N: n, Variant: element.ACMLGBoth, Seed: DefaultSeed,
		Graph: true, Lookahead: 1, GraphHybrid: true,
	}
	horizon := linpacksim.Run(base).Seconds
	scens := []string{"lost-gpu", "sdc-single", "lost-gpu+sdc-single"}
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		cells := sweep.MapTel(context.Background(), par, tel, scens,
			func(_ int, scen string, tel *telemetry.Telemetry) linpacksim.Result {
				in, err := fault.NewScenario(scen, horizon, DefaultSeed)
				if err != nil {
					panic("experiments: " + err.Error())
				}
				in.Instrument(tel)
				cfg := base
				cfg.Verify = true
				cfg.SDC = in
				cfg.Telemetry = tel
				return linpacksim.Run(cfg)
			})
		var buf bytes.Buffer
		for i, c := range cells {
			fmt.Fprintf(&buf, "%s seconds=%v gflops=%v detected=%d corrected=%d escalated=%d verify=%v\n",
				scens[i], c.Seconds, c.GFLOPS, c.SDCDetected, c.SDCCorrected, c.SDCEscalated, c.VerifySeconds)
			if c.Seconds <= horizon {
				t.Errorf("%s: faulted run (%.1fs) not slower than healthy (%.1fs)", scens[i], c.Seconds, horizon)
			}
			if scens[i] != "lost-gpu" && c.SDCDetected == 0 {
				t.Errorf("%s: no corruption detected across the hybrid run", scens[i])
			}
		}
		return buf.Bytes(), telBytes(t, tel)
	}
	cells1, tel1 := run(1)
	cells8, tel8 := run(8)
	diffBytes(t, "hybrid fault cells", cells1, cells8)
	diffBytes(t, "hybrid fault telemetry", tel1, tel8)
}
