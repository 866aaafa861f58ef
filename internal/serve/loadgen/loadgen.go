// Package loadgen generates and replays deterministic open-loop request
// traffic against a serve.Server. Each simulated client draws Poisson
// interarrivals from its own named sim stream, so a run with 1000+
// concurrent clients regenerates bit-identically from (seed, config) on any
// machine and under any sweep parallelism — the serving analog of the
// repository's seeded experiment rule. Arrival generation is open loop:
// clients do not wait for responses, which is what exposes the saturation
// point of the service instead of throttling to it.
package loadgen

import (
	"fmt"
	"sort"

	"tianhe/internal/serve"
	"tianhe/internal/sim"
)

// Config describes one generated load.
type Config struct {
	// Seed drives every client stream; same seed, same trace.
	Seed uint64
	// Clients is the number of concurrent open-loop clients. 0 selects
	// DefaultClients.
	Clients int
	// Rate is the aggregate arrival rate in jobs per virtual second,
	// spread evenly across clients. 0 selects DefaultRate.
	Rate float64
	// Horizon is the arrival window: clients emit from time 0 to Horizon.
	// 0 selects DefaultHorizon.
	Horizon sim.Time
}

// Defaults for zero Config fields.
const (
	DefaultClients = 1024
	DefaultRate    = 2000.0
	DefaultHorizon = sim.Time(0.25)
)

// The traffic mix. Clients map onto the billing tenants round-robin; a
// quarter of the jobs are dense solves and the rest DGEMM updates; DGEMM
// row counts (M) and solve orders are drawn uniformly, and the shared
// (N, K) batch shape stays fixed so jobs can coalesce.
const (
	solveFraction = 0.25
	batchN        = 256
	batchK        = 256
)

var (
	tenants     = []string{"alpha", "beta", "gamma", "delta"}
	shapes      = []int{32, 64, 128, 256}
	solveOrders = []int{256, 512}
)

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = DefaultClients
	}
	if c.Rate == 0 {
		c.Rate = DefaultRate
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

// Arrival is one generated request with its virtual arrival time.
type Arrival struct {
	At     sim.Time
	Client int
	Req    serve.Request
}

// Generate produces the full arrival trace for a config, sorted by
// (time, client) so replay order is total and deterministic.
func Generate(cfg Config) []Arrival {
	cfg = cfg.withDefaults()
	perClient := cfg.Rate / float64(cfg.Clients)
	var out []Arrival
	for c := 0; c < cfg.Clients; c++ {
		rng := sim.NewStream(cfg.Seed, fmt.Sprintf("loadgen/client%d", c))
		tenant := tenants[c%len(tenants)]
		t := sim.Time(0)
		for {
			// Exponential interarrival at the client's share of the rate.
			u := rng.Float64()
			t += sim.Time(-sim.Log(1-u) / perClient)
			if t >= cfg.Horizon {
				break
			}
			var req serve.Request
			if rng.Float64() < solveFraction {
				req = serve.Request{
					Tenant: tenant, Kind: "solve",
					N: solveOrders[rng.Intn(len(solveOrders))],
				}
			} else {
				req = serve.Request{
					Tenant: tenant, Kind: "dgemm",
					M: shapes[rng.Intn(len(shapes))],
					N: batchN, K: batchK,
				}
			}
			out = append(out, Arrival{At: t, Client: c, Req: req})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:ignore floateq exact-timestamp ties must fall through to the client-index tie-breaker for a total order
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Client < out[j].Client
	})
	return out
}

// TenantStats is one tenant's replay outcome. Latencies are exact order
// statistics in virtual seconds.
type TenantStats struct {
	Tenant                 string
	Completed, Rejected    int
	P50Latency, P99Latency float64
}

// Report is the outcome of one replay.
type Report struct {
	Arrivals int
	Stats    serve.Stats
	Makespan sim.Time
	// Throughput is sustained completed jobs per virtual second over the
	// makespan.
	Throughput float64
	// P50 and P99 are exact order-statistic latencies over completed jobs
	// (not histogram estimates), in virtual seconds.
	P50, P99 float64
	// MeanBatchJobs is the mean occupancy over executed batches.
	MeanBatchJobs float64
	// Failed counts admitted jobs that never completed; the service
	// contract makes it zero, and replays assert on it.
	Failed int
	// Tenants holds per-tenant outcomes sorted by tenant name.
	Tenants []TenantStats
}

// Replay submits a generated trace to a server, drains its event loop, and
// summarizes the outcome.
func Replay(s *serve.Server, trace []Arrival) (Report, error) {
	for i, a := range trace {
		if _, err := s.SubmitAt(a.Req, a.At); err != nil {
			return Report{}, fmt.Errorf("loadgen: arrival %d: %w", i, err)
		}
	}
	s.Run()
	return Summarize(s, len(trace)), nil
}

// Summarize builds a Report from a drained server.
func Summarize(s *serve.Server, arrivals int) Report {
	st := s.Stats()
	rep := Report{
		Arrivals: arrivals,
		Stats:    st,
		Makespan: st.LastEnd,
		Failed:   st.Admitted - st.Completed,
	}
	if st.LastEnd > 0 {
		rep.Throughput = float64(st.Completed) / float64(st.LastEnd)
	}
	if st.Batches > 0 {
		rep.MeanBatchJobs = float64(st.Completed) / float64(st.Batches)
	}

	// One accumulator per tenant: its outcome and its latencies, found with
	// one lookup per result.
	type tenantAcc struct {
		TenantStats
		lat []float64
	}
	latencies := make([]float64, 0, st.Completed)
	perTenant := make(map[string]*tenantAcc)
	var order []string
	for _, r := range s.Results() {
		ta, ok := perTenant[r.Tenant]
		if !ok {
			ta = &tenantAcc{TenantStats: TenantStats{Tenant: r.Tenant}}
			perTenant[r.Tenant] = ta
			order = append(order, r.Tenant)
		}
		if r.Rejected {
			ta.Rejected++
			continue
		}
		ta.Completed++
		latencies = append(latencies, r.Latency())
		ta.lat = append(ta.lat, r.Latency())
	}
	// Each slice is the summary's own, so it is sorted in place, once, and
	// both quantiles read from it.
	sort.Float64s(latencies)
	rep.P50 = sortedQuantile(latencies, 0.50)
	rep.P99 = sortedQuantile(latencies, 0.99)
	sort.Strings(order)
	for _, name := range order {
		ta := perTenant[name]
		sort.Float64s(ta.lat)
		ta.P50Latency = sortedQuantile(ta.lat, 0.50)
		ta.P99Latency = sortedQuantile(ta.lat, 0.99)
		rep.Tenants = append(rep.Tenants, ta.TenantStats)
	}
	return rep
}

// sortedQuantile returns the q order statistic (nearest rank) of an
// ascending slice; 0 when empty.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
