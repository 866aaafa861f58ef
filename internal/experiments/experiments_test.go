package experiments

import (
	"strings"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/pipeline"
)

// quick sweeps keep the test suite fast; the full sweeps run once, in
// TestPaperLedger.
var (
	quickFig8  = []int{2048, 6144, 10240, 14336}
	quickFig9  = []int{9728, 24320, 46080}
	quickFig11 = []int{1, 8, 64}
)

func seriesByName(t *testing.T, ss []*Series, name string) *Series {
	t.Helper()
	for _, s := range ss {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing", name)
	return nil
}

// measured returns the measured value of ledger row id from the par-1
// ledger that TestPaperLedger checks; the figure tests below pin the
// paper's bands on those rows independently of paperRows.
func measured[T float64 | int | bool](t *testing.T, id string) T {
	t.Helper()
	for _, r := range paperLedger() {
		if r.ID == id {
			v, ok := r.Measured.(T)
			if !ok {
				t.Fatalf("ledger row %s holds %T", id, r.Measured)
			}
			return v
		}
	}
	t.Fatalf("ledger row %s missing", id)
	var zero T
	return zero
}

func TestFig8Ordering(t *testing.T) {
	ss := Fig8Instrumented(1, quickFig8, nil, 1)
	if len(ss) != 5 {
		t.Fatalf("Fig8 must produce five series, got %d", len(ss))
	}
	cpu := seriesByName(t, ss, "CPU")
	acmlg := seriesByName(t, ss, "ACMLG")
	both := seriesByName(t, ss, "ACMLG+both")
	for _, n := range quickFig8 {
		c, _ := cpu.Y(float64(n))
		a, _ := acmlg.Y(float64(n))
		b, _ := both.Y(float64(n))
		if !(c < a && a < b) {
			t.Fatalf("N=%d: expected CPU < ACMLG < both, got %v %v %v", n, c, a, b)
		}
	}
}

func TestFig8GainsNearPaper(t *testing.T) {
	if ga := measured[float64](t, "fig8.gain.adaptive"); ga < 0.10 || ga > 0.22 {
		t.Fatalf("adaptive gain %.1f%%, paper reports 14.64%%", ga*100)
	}
	if gp := measured[float64](t, "fig8.gain.pipe_above_8192"); gp < 0.04 || gp > 0.15 {
		t.Fatalf("pipe gain %.1f%%, paper reports 7.61%%", gp*100)
	}
	if gb := measured[float64](t, "fig8.gain.both_above_8192"); gb < 0.15 || gb > 0.32 {
		t.Fatalf("combined gain %.1f%%, paper reports 22.19%%", gb*100)
	}
}

func TestFig8PipeUselessBelow8192(t *testing.T) {
	// The paper: no pipeline benefit for N <= 8192 beyond the EO fusion;
	// the gain must at least be clearly larger above 8192 than below.
	small := measured[float64](t, "fig8.gain.pipe_to_8192")
	big := measured[float64](t, "fig8.gain.pipe_above_8192")
	if big <= small || !measured[bool](t, "fig8.pipe_gain_grows_above_8192") {
		t.Fatalf("pipe gain above 8192 (%.1f%%) must exceed gain below (%.1f%%)", big*100, small*100)
	}
}

func TestFig9HeadlineRatios(t *testing.T) {
	// Paper: 196.7 GFLOPS (70.1% of 280.5 peak), 3.3x ACMLG, 5.49x CPU.
	if both := measured[float64](t, "fig9.both.n46080"); both < 180 || both > 215 {
		t.Fatalf("optimized Linpack %v GFLOPS, paper reports 196.7", both)
	}
	if r := measured[float64](t, "fig9.both.over_acmlg"); r < 2.8 || r > 4.2 {
		t.Fatalf("speedup over vendor library %.2fx, paper reports 3.3x", r)
	}
	if r := measured[float64](t, "fig9.both.over_cpu"); r < 4.5 || r > 6.5 {
		t.Fatalf("speedup over host-only %.2fx, paper reports 5.49x", r)
	}
	if frac := measured[float64](t, "fig9.both.peak_fraction"); frac < 0.62 || frac > 0.80 {
		t.Fatalf("peak fraction %.1f%%, paper reports 70.1%%", frac*100)
	}
}

func TestFig9MonotoneInN(t *testing.T) {
	ss := Fig9Instrumented(1, quickFig9, nil, 1)
	for _, s := range ss {
		prev := 0.0
		for _, p := range s.Points {
			if p.Y < prev*0.9 {
				t.Fatalf("%s: performance collapsed between sizes: %v", s.Name, s.Points)
			}
			prev = p.Y
		}
	}
}

func TestFig10SplitsAdapt(t *testing.T) {
	entries, initial := Fig10Instrumented(DefaultSeed, 24320, nil)
	if initial < 0.85 || initial > 0.92 {
		t.Fatalf("initial split %v, paper reports 0.889", initial)
	}
	touched := 0
	moved := 0
	for _, e := range entries {
		if e.Touched {
			touched++
			if e.Split != initial {
				moved++
			}
			if e.Split >= initial {
				continue
			}
			// Adapted splits drop below the peak ratio because the GPU runs
			// under peak on Linpack shapes; nothing to assert per entry.
		}
	}
	if touched == 0 || moved == 0 {
		t.Fatal("the Linpack run must touch and move database_g entries")
	}
}

func TestFig10SmallWorkloadsLowerSplit(t *testing.T) {
	// The paper: values differ significantly from the initial 0.889 for
	// small workloads and settle with growing workload.
	if measured[int](t, "fig10.touched_buckets") == 0 {
		t.Fatal("no touched buckets found")
	}
	if !measured[bool](t, "fig10.small_deviates_more") {
		t.Fatal("small workloads must deviate more from the initial split than large ones")
	}
}

func TestFig11AdvantageAt64(t *testing.T) {
	adv := measured[float64](t, "fig11.advantage.p64")
	if adv < 0.08 || adv > 0.25 {
		t.Fatalf("advantage at 64 processes %.2f%%, paper reports 15.56%%", adv*100)
	}
	if measured[float64](t, "fig11.advantage.p1") >= adv || !measured[bool](t, "fig11.advantage_grows") {
		t.Fatal("advantage must grow with process count")
	}
}

func TestFig12ShapeAndMagnitude(t *testing.T) {
	if one := measured[float64](t, "fig12.tflops.c1"); one < 7 || one > 9 {
		t.Fatalf("one cabinet %v TFLOPS, paper reports 8.02", one)
	}
	if eighty := measured[float64](t, "fig12.tflops.c80"); eighty < 480 || eighty > 620 {
		t.Fatalf("80 cabinets %v TFLOPS, paper reports 563.1", eighty)
	}
	if eff := measured[float64](t, "fig12.efficiency"); eff < 0.78 || eff > 0.95 {
		t.Fatalf("scaling efficiency %.1f%%, paper reports 87.76%%", eff*100)
	}
}

func TestFig13LateDrop(t *testing.T) {
	if !measured[bool](t, "fig13.final_below_p97_17") {
		t.Fatal("cumulative performance must drop through the endgame")
	}
	if drop := measured[float64](t, "fig13.endgame_drop"); drop < 5 {
		t.Fatalf("endgame drop %v TFLOPS too small, paper shows ~41.6", drop)
	}
}

func TestTableIRendering(t *testing.T) {
	// The 2x2 task split of Fig. 5, bounce-ordered T0, T1, T3, T2.
	p := pipeline.NewPlan(2*4096, 2*4096, 4096, 4096, true)
	out := pipeline.FormatSchedule(pipeline.Schedule(pipeline.BounceOrderNames(p)))
	for _, want := range []string{"T0", "T1", "T3", "T2", "N-Input", "EO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Fatalf("Table I has %d lines, want header + 9 time steps", lines)
	}
}

func TestVariantsCoverPaperSet(t *testing.T) {
	if len(element.Variants) != 5 {
		t.Fatal("the evaluation covers exactly five configurations")
	}
}
