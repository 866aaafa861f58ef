package loadgen

import (
	"reflect"
	"sort"
	"testing"

	"tianhe/internal/serve"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Clients: 64, Rate: 500, Horizon: 0.1}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) == 0 {
		t.Fatalf("no arrivals generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config generated different traces")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool {
		if a[i].At != a[j].At {
			return a[i].At < a[j].At
		}
		return a[i].Client < a[j].Client
	}) {
		t.Fatalf("trace not sorted by (time, client)")
	}
	for _, ar := range a {
		if ar.At < 0 || ar.At >= cfg.Horizon {
			t.Fatalf("arrival outside horizon: %+v", ar)
		}
	}
	// A different seed must reshuffle the trace.
	c := Generate(Config{Seed: 8, Clients: 64, Rate: 500, Horizon: 0.1})
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds generated identical traces")
	}
}

func TestGenerateRateAndMix(t *testing.T) {
	cfg := Config{Seed: 1, Clients: 256, Rate: 4000, Horizon: 0.5}
	trace := Generate(cfg)
	// Poisson count over the window: expect rate*horizon ± a wide margin.
	want := float64(cfg.Rate) * float64(cfg.Horizon)
	if n := float64(len(trace)); n < 0.8*want || n > 1.2*want {
		t.Fatalf("generated %d arrivals, want about %g", len(trace), want)
	}
	solves := 0
	for _, a := range trace {
		if a.Req.Kind == "solve" {
			solves++
		}
	}
	frac := float64(solves) / float64(len(trace))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("solve fraction %g, want near %g", frac, solveFraction)
	}
}

func TestReplayThousandClients(t *testing.T) {
	// The acceptance-scale replay: 1k+ concurrent open-loop clients,
	// every admitted job completed, nothing failed.
	trace := Generate(Config{Seed: 21, Clients: 1200, Rate: 3000, Horizon: 0.1})
	if len(trace) == 0 {
		t.Fatalf("empty trace")
	}
	s, err := serve.New(serve.Config{Seed: 21, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(s, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d jobs failed", rep.Failed)
	}
	if rep.Stats.Completed != rep.Stats.Admitted {
		t.Fatalf("completion accounting: %+v", rep.Stats)
	}
	if rep.Throughput <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("degenerate summary: %+v", rep)
	}
	if len(rep.Tenants) != len(tenants) {
		t.Fatalf("tenants: %d, want %d", len(rep.Tenants), len(tenants))
	}
	if !sort.SliceIsSorted(rep.Tenants, func(i, j int) bool {
		return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant
	}) {
		t.Fatalf("tenant stats not sorted")
	}
}

func TestExactQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := sortedQuantile(xs, 0.5); q != 3 {
		t.Fatalf("p50 = %g", q)
	}
	if q := sortedQuantile(xs, 1); q != 5 {
		t.Fatalf("p100 = %g", q)
	}
	if q := sortedQuantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}
