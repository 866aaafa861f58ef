package experiments

import (
	"testing"

	"tianhe/internal/telemetry"
)

// quickServe keeps the sweep small enough for the unit-test tier while
// still crossing the service's saturation point.
var quickServe = ServeConfig{
	Seed:    DefaultSeed,
	Clients: 256,
	Workers: 2,
	Rates:   []float64{1000, 8000},
	Horizon: 0.05,
}

func TestServeSweepHealthy(t *testing.T) {
	points, err := ServeSweep(quickServe, telemetry.Disabled(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ServeVerdict(points, ""); err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	lo, hi := points[0], points[1]
	if lo.Arrivals == 0 || hi.Arrivals == 0 {
		t.Fatalf("empty traces: %+v %+v", lo.Arrivals, hi.Arrivals)
	}
	if hi.Throughput <= lo.Throughput {
		t.Fatalf("throughput did not rise with offered load: %g -> %g", lo.Throughput, hi.Throughput)
	}
	if hi.MeanBatchJobs <= lo.MeanBatchJobs {
		t.Fatalf("batching did not adapt to load: %g -> %g", lo.MeanBatchJobs, hi.MeanBatchJobs)
	}
	if rate, peak := Saturation(points); peak <= 0 {
		t.Fatalf("saturation: rate=%g peak=%g", rate, peak)
	}
}

func TestServeSweepLostGPU(t *testing.T) {
	cfg := quickServe
	cfg.Scenario = "lost-gpu"
	points, err := ServeSweep(cfg, telemetry.Disabled(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The serving contract under device loss: all jobs complete, batches
	// drain, throughput degrades rather than the service failing.
	if err := ServeVerdict(points, "lost-gpu"); err != nil {
		t.Fatal(err)
	}
	degraded := false
	for _, p := range points {
		if p.Failed != 0 {
			t.Fatalf("rate %g failed %d jobs", p.Rate, p.Failed)
		}
		if p.HealthyThroughput <= 0 {
			t.Fatalf("rate %g missing healthy reference", p.Rate)
		}
		if p.DegradationPct > 0 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("losing a GPU degraded nothing: %+v", points)
	}
}

func TestServeSweepUnknownScenario(t *testing.T) {
	cfg := quickServe
	cfg.Scenario = "no-such-fault"
	if _, err := ServeSweep(cfg, telemetry.Disabled(), 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestParDeterminismServeSweep(t *testing.T) {
	run := func(par int) ([]byte, []byte) {
		tel := telemetry.New()
		cfg := quickServe
		cfg.Scenario = "lost-gpu"
		points, err := ServeSweep(cfg, tel, par)
		if err != nil {
			t.Fatalf("ServeSweep: %v", err)
		}
		l := &ledger{}
		l.servePoints(cfg.Scenario, points)
		return ledgerBytes(t, DefaultSeed, 1, l.rows), telBytes(t, tel)
	}
	rows1, tel1 := run(1)
	rows8, tel8 := run(8)
	diffBytes(t, "ServeSweep rows", rows1, rows8)
	diffBytes(t, "ServeSweep telemetry", tel1, tel8)
}
