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

// Replay submits a generated trace to a server as one run, drains its event
// loop, and summarizes the outcome. The server reads the trace in place
// while it runs; the trace is not modified.
func Replay(s *serve.Server, trace []Arrival) (Report, error) {
	if _, err := s.SubmitRun(len(trace), func(i int) (serve.Request, sim.Time) {
		return trace[i].Req, trace[i].At
	}); err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
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

	// One accumulator per tenant: its outcome, then its latencies. A first
	// pass counts each tenant's completions; each tenant then fills its own
	// sub-slice of one array, so the tenants' slices together hold every
	// latency exactly once.
	type tenantAcc struct {
		TenantStats
		lat []float64
	}
	perTenant := make(map[string]*tenantAcc)
	var order []string
	completed := 0
	for _, r := range s.Results() {
		ta, ok := perTenant[r.Tenant]
		if !ok {
			ta = &tenantAcc{TenantStats: TenantStats{Tenant: r.Tenant}}
			perTenant[r.Tenant] = ta
			order = append(order, r.Tenant)
		}
		if r.Rejected {
			ta.Rejected++
		} else {
			ta.Completed++
			completed++
		}
	}
	sort.Strings(order)
	rep.Tenants = make([]TenantStats, 0, len(order))
	latencies := make([]float64, completed)
	off := 0
	for _, name := range order {
		ta := perTenant[name]
		ta.lat = latencies[off : off : off+ta.Completed]
		off += ta.Completed
	}
	for _, r := range s.Results() {
		if !r.Rejected {
			ta := perTenant[r.Tenant]
			ta.lat = append(ta.lat, r.Latency())
		}
	}
	// The quantiles are order statistics, selected in place: selecting
	// reorders a slice but keeps its multiset, so each tenant's selection
	// leaves the whole array the same multiset for the overall one.
	for _, name := range order {
		ta := perTenant[name]
		ta.P50Latency = selectQuantile(ta.lat, 0.50)
		ta.P99Latency = selectQuantile(ta.lat, 0.99)
		rep.Tenants = append(rep.Tenants, ta.TenantStats)
	}
	rep.P50 = selectQuantile(latencies, 0.50)
	rep.P99 = selectQuantile(latencies, 0.99)
	return rep
}

// selectQuantile returns the q order statistic (nearest rank: the element a
// sort would put at index int(q*(len-1))) of xs; 0 when empty. It reorders
// xs in place: a quickselect partitions around median-of-three pivots until
// the rank's slot holds that element, in expected linear time.
func selectQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := min(max(int(q*float64(len(xs)-1)), 0), len(xs)-1)
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition: afterwards xs[lo:j+1] <= pivot, xs[i:hi+1] >=
		// pivot, and everything strictly between j and i equals it.
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}
