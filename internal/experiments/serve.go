package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/fault"
	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// ServeConfig parameterizes one serving sweep: the same seeded open-loop
// load replayed against the solver service at each arrival rate.
type ServeConfig struct {
	Seed     uint64
	Scenario string // "" or "healthy" for the fault-free sweep
	Clients  int
	Workers  int
	// Rates are the open-loop aggregate arrival rates (jobs per virtual
	// second), one sweep point each. Nil selects DefaultServeRates.
	Rates []float64
	// Horizon is the arrival window of every point. 0 selects the loadgen
	// default.
	Horizon sim.Time
}

// DefaultServeRates spans from an unloaded service past its saturation
// point, roughly doubling per step.
var DefaultServeRates = []float64{500, 1000, 2000, 4000, 8000, 16000}

// ServeTenant is one tenant's outcome at one sweep point.
type ServeTenant struct {
	Tenant     string
	Completed  int
	Rejected   int
	P50Seconds float64
	P99Seconds float64
}

// ServePoint is one arrival-rate measurement of ServeSweep. Latencies are
// exact order statistics over completed jobs, in virtual seconds.
type ServePoint struct {
	Rate     float64
	Arrivals int

	Admitted  int
	Rejected  int
	Completed int
	// Failed is admitted-but-never-completed; the service contract keeps
	// it zero, and the acceptance verdict fails the sweep otherwise.
	Failed  int
	Batches int
	Drains  int

	MeanBatchJobs float64
	Throughput    float64
	P50Seconds    float64
	P99Seconds    float64
	Makespan      float64

	// HealthyThroughput is the same trace on a fault-free service; set
	// only when the sweep runs a fault scenario. DegradationPct is the
	// throughput lost to the scenario, in percent.
	HealthyThroughput float64
	DegradationPct    float64

	Tenants []ServeTenant
}

// servePoint measures one rate, returning the faulted measurement when the
// config names a scenario (with the healthy reference folded in).
func servePoint(cfg ServeConfig, i int, rate float64, tel *telemetry.Telemetry) (ServePoint, error) {
	pointSeed := sweep.Seed(cfg.Seed, i)
	trace := loadgen.Generate(loadgen.Config{
		Seed: pointSeed, Clients: cfg.Clients, Rate: rate, Horizon: cfg.Horizon,
	})
	scenario := cfg.Scenario != "" && cfg.Scenario != "healthy"

	// The reference run: fault-free, instrumented only when it is the
	// measured run.
	refTel := tel
	if scenario {
		refTel = telemetry.Disabled()
	}
	ref, err := serve.New(serve.Config{Seed: pointSeed, Workers: cfg.Workers, Telemetry: refTel})
	if err != nil {
		return ServePoint{}, err
	}
	rep, err := loadgen.Replay(ref, trace)
	if err != nil {
		return ServePoint{}, err
	}

	var healthy loadgen.Report
	if scenario {
		healthy = rep
		faulted, err := serve.New(serve.Config{
			Seed: pointSeed, Workers: cfg.Workers,
			Scenario: cfg.Scenario, ScenarioHorizon: healthy.Makespan,
			Telemetry: tel,
		})
		if err != nil {
			return ServePoint{}, err
		}
		rep, err = loadgen.Replay(faulted, trace)
		if err != nil {
			return ServePoint{}, err
		}
	}

	pt := ServePoint{
		Rate:          rate,
		Arrivals:      rep.Arrivals,
		Admitted:      rep.Stats.Admitted,
		Rejected:      rep.Stats.Rejected,
		Completed:     rep.Stats.Completed,
		Failed:        rep.Failed,
		Batches:       rep.Stats.Batches,
		Drains:        rep.Stats.Drains,
		MeanBatchJobs: rep.MeanBatchJobs,
		Throughput:    rep.Throughput,
		P50Seconds:    rep.P50,
		P99Seconds:    rep.P99,
		Makespan:      float64(rep.Makespan),
	}
	if scenario {
		pt.HealthyThroughput = healthy.Throughput
		if healthy.Throughput > 0 {
			pt.DegradationPct = 100 * (healthy.Throughput - rep.Throughput) / healthy.Throughput
		}
	}
	for _, ts := range rep.Tenants {
		pt.Tenants = append(pt.Tenants, ServeTenant{
			Tenant:     ts.Tenant,
			Completed:  ts.Completed,
			Rejected:   ts.Rejected,
			P50Seconds: ts.P50Latency,
			P99Seconds: ts.P99Latency,
		})
	}
	return pt, nil
}

// ServeSweep replays the seeded open-loop load at every configured arrival
// rate, on par workers. Each point is independent (its own service, its own
// trace) and records into an isolated child bundle, so tables and telemetry
// merge back in rate order byte-identically to the serial sweep.
func ServeSweep(cfg ServeConfig, tel *telemetry.Telemetry, par int) ([]ServePoint, error) {
	if cfg.Clients == 0 {
		cfg.Clients = loadgen.DefaultClients
	}
	if cfg.Workers == 0 {
		cfg.Workers = serve.DefaultWorkers
	}
	if cfg.Rates == nil {
		cfg.Rates = DefaultServeRates
	}
	if cfg.Scenario != "" {
		if _, err := fault.Scenario(cfg.Scenario, 1); err != nil {
			return nil, err
		}
	}
	type outcome struct {
		pt  ServePoint
		err error
	}
	results := sweep.MapTel(context.Background(), par, tel, cfg.Rates,
		func(i int, rate float64, tel *telemetry.Telemetry) outcome {
			pt, err := servePoint(cfg, i, rate, tel)
			return outcome{pt: pt, err: err}
		})
	points := make([]ServePoint, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		points = append(points, r.pt)
	}
	return points, nil
}

// Saturation locates the service's saturation point in a fault-free sweep:
// the highest measured sustained throughput, and the lowest rate at which
// the service visibly saturates (rejections appear, or throughput falls
// under 90% of the offered rate). The bar is 90%, not tighter, because
// throughput divides by the makespan and the last batch always completes
// after the last arrival — at low rates that tail shaves a few percent off
// delivered/offered without the service being remotely busy. A saturation
// rate of 0 means no swept rate saturated the service.
func Saturation(points []ServePoint) (rate, peak float64) {
	for _, p := range points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
		if rate == 0 && (p.Rejected > 0 || p.Throughput < 0.9*p.Rate) {
			rate = p.Rate
		}
	}
	return rate, peak
}

// ServeVerdict checks a sweep against the serving contract: every point
// completed every admitted job (zero failures), and a fault sweep actually
// exercised the drain path. The returned error lists every violation.
func ServeVerdict(points []ServePoint, scenario string) error {
	var fails []string
	if len(points) == 0 {
		fails = append(fails, "sweep produced no points")
	}
	drains := 0
	for _, p := range points {
		if p.Failed != 0 {
			fails = append(fails, fmt.Sprintf("rate %g: %d admitted jobs never completed", p.Rate, p.Failed))
		}
		if p.Admitted+p.Rejected != p.Arrivals {
			fails = append(fails, fmt.Sprintf("rate %g: admission accounting broken (%d+%d != %d)",
				p.Rate, p.Admitted, p.Rejected, p.Arrivals))
		}
		drains += p.Drains
	}
	if scenario == "lost-gpu" && drains == 0 {
		fails = append(fails, "lost-gpu sweep never drained a batch")
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("serve acceptance failed: %v", fails)
}
