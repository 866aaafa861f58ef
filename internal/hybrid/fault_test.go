package hybrid

import (
	"testing"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// faultElement builds a deterministic element with a GPU-loss window
// injected, plus an adaptive runner over it.
func faultElement(t *testing.T, lossFrom, lossTo sim.Time, aware bool) (*Runner, *adaptive.Adaptive, *telemetry.Telemetry) {
	t.Helper()
	el := element.New(element.Config{Seed: 3, Virtual: true, JitterSigma: -1})
	in := fault.New(1, fault.Event{Kind: fault.GPULoss, Start: lossFrom, End: lossTo})
	fault.Attach(in, el)
	part := adaptive.NewAdaptive(32, 1e14, el.InitialGSplit(), el.CPU.NumCores())
	run := New(el, element.ACMLGBoth, part)
	tel := telemetry.New()
	run.Instrument(tel)
	if aware {
		run.EnableGPUFaultFallback()
	}
	return run, part, tel
}

// healthyOpSeconds measures one op on a fault-free twin element.
func healthyOpSeconds(n int) sim.Time {
	el := element.New(element.Config{Seed: 3, Virtual: true, JitterSigma: -1})
	part := adaptive.NewAdaptive(32, 1e14, el.InitialGSplit(), el.CPU.NumCores())
	rep := New(el, element.ACMLGBoth, part).GemmVirtual(n, n, n, 1, 0)
	return rep.End - rep.Start
}

func TestUnawareRunnerStallsOnContextLoss(t *testing.T) {
	const n = 4096
	op := healthyOpSeconds(n)
	run, _, _ := faultElement(t, 2.5*op, 1e9, false)
	var stalledAt int = -1
	tm := sim.Time(0)
	for i := 0; i < 6; i++ {
		rep := run.GemmVirtual(n, n, n, 1, tm)
		if rep.Stalled {
			if rep.End != rep.Start || rep.GSplit != 0 || rep.TG != 0 {
				t.Fatalf("stalled report books time or GPU work: %+v", rep)
			}
			stalledAt = i
			break
		}
		tm = rep.End
	}
	if stalledAt < 1 {
		t.Fatalf("runner never stalled (stalledAt=%d) — context loss unenforced", stalledAt)
	}
}

func TestAwareRunnerFallsBackQuarantinesAndRecovers(t *testing.T) {
	const n = 4096
	op := healthyOpSeconds(n)
	lossFrom, lossTo := 2.5*op, 2.5*op+6*op
	run, part, tel := faultElement(t, lossFrom, lossTo, true)

	var sawFallback, sawRecovery bool
	tm := sim.Time(0)
	for i := 0; i < 40 && !sawRecovery; i++ {
		rep := run.GemmVirtual(n, n, n, 1, tm)
		if rep.Stalled {
			t.Fatalf("fault-aware runner stalled at op %d", i)
		}
		inOutage := tm >= lossFrom && tm < lossTo
		if inOutage {
			// GSplit collapses to zero and the database quarantines.
			if rep.GSplit != 0 || rep.TG != 0 {
				t.Fatalf("op %d during outage used the GPU: %+v", i, rep)
			}
			if !part.G.Quarantined() {
				t.Fatalf("op %d during outage: database not quarantined", i)
			}
			sawFallback = true
		}
		if tm >= lossTo && sawFallback {
			// First op after restore: context rebuilt, GPU back in play.
			if rep.GSplit == 0 {
				t.Fatalf("op %d after restore still CPU-only: %+v", i, rep)
			}
			if part.G.Quarantined() {
				t.Fatal("quarantine survived recovery")
			}
			sawRecovery = true
		}
		tm = rep.End
	}
	if !sawFallback || !sawRecovery {
		t.Fatalf("fallback=%v recovery=%v — loss window never exercised", sawFallback, sawRecovery)
	}

	// The fault path must be visible in the trace.
	var fallbackEv, reinitEv bool
	for _, e := range tel.Trace.Events() {
		switch e.Name {
		case "gpu.fallback":
			fallbackEv = true
		case "gpu.reinit":
			reinitEv = true
		}
	}
	if !fallbackEv || !reinitEv {
		t.Fatalf("trace missing fault events: fallback=%v reinit=%v", fallbackEv, reinitEv)
	}
}

func TestFallbackRunsAreDeterministic(t *testing.T) {
	const n = 4096
	op := healthyOpSeconds(n)
	runOnce := func() sim.Time {
		run, _, _ := faultElement(t, 2*op, 7*op, true)
		tm := sim.Time(0)
		for i := 0; i < 20; i++ {
			rep := run.GemmVirtual(n, n, n, 1, tm)
			tm = rep.End
		}
		return tm
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("fault runs diverged: %v vs %v", a, b)
	}
}
