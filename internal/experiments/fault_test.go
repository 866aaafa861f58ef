package experiments

import (
	"reflect"
	"slices"
	"testing"

	"tianhe/internal/telemetry"
)

// Short parameters for the policy sweeps below; the fault.* ledger rows
// pin the full-size runs.
const (
	shortN   = 4096
	shortOps = 28
)

// TestHealthyScenarioHasZeroHookOverhead is the short healthy run: with an
// empty injector attached to every hook, virtual time must not move at all
// relative to the hookless reference.
func TestHealthyScenarioHasZeroHookOverhead(t *testing.T) {
	cells, err := FaultSweep("healthy", DefaultSeed, shortN, shortOps, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d policies, want 3", len(cells))
	}
	for _, c := range cells {
		if c.OverheadPct != 0 {
			t.Errorf("%s: empty-injector overhead %+.6f%%, want exactly 0", c.Policy, c.OverheadPct)
		}
		if c.Stalled || c.OpsDone != shortOps {
			t.Errorf("%s: healthy run stalled=%v ops=%d/%d", c.Policy, c.Stalled, c.OpsDone, shortOps)
		}
		if c.FaultSeconds != c.HealthySeconds {
			t.Errorf("%s: attached run %v s vs reference %v s — hooks moved virtual time", c.Policy, c.FaultSeconds, c.HealthySeconds)
		}
	}
}

// TestLostGPUAcceptance is the short lost-gpu run, asserting the headline
// claim: the adaptive runtime recovers to >= 90% of its healthy steady
// state after device restore, while static and offline-trained stall on
// the dead context.
func TestLostGPUAcceptance(t *testing.T) {
	tel := telemetry.New()
	cells, err := FaultSweep("lost-gpu", DefaultSeed, shortN, shortOps, tel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := LostGPUVerdict(cells); err != nil {
		t.Fatal(err)
	}
	// The verdict must reject a frozen policy that survives the outage.
	survived := slices.Clone(cells)
	for i := range survived {
		if survived[i].Policy == "static" {
			survived[i].Stalled, survived[i].OpsDone = false, shortOps
		}
	}
	if LostGPUVerdict(survived) == nil {
		t.Error("LostGPUVerdict passed a static policy that survived the outage")
	}

	// Fault activations and recoveries must be visible as trace events.
	var lossSpan, fallback, reinit bool
	for _, e := range tel.Trace.Events() {
		switch {
		case e.Track == "fault" && e.Name == "gpu.loss":
			lossSpan = true
		case e.Name == "gpu.fallback":
			fallback = true
		case e.Name == "gpu.reinit":
			reinit = true
		}
	}
	if !lossSpan || !fallback || !reinit {
		t.Errorf("trace missing fault events: loss=%v fallback=%v reinit=%v", lossSpan, fallback, reinit)
	}
}

// TestSweepIsDeterministic: identical seeds must reproduce every metric
// bit for bit, fault schedule and all.
func TestSweepIsDeterministic(t *testing.T) {
	a, err := FaultSweep("lost-gpu", DefaultSeed, shortN, shortOps, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep("lost-gpu", DefaultSeed, shortN, shortOps, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweeps diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestNetStormDeterministicAndRecovered(t *testing.T) {
	a, err := NetStorm(DefaultSeed, 8, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NetStorm(DefaultSeed, 8, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("net storms diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Drops == 0 || a.Retries != a.Drops {
		t.Fatalf("drops %d retries %d — every drop must be retried", a.Drops, a.Retries)
	}
	if a.FaultSeconds <= a.HealthySeconds {
		t.Fatal("flaky fabric not slower than healthy")
	}
}

func TestFailoverCheckpointWins(t *testing.T) {
	res := Failover(DefaultSeed, 9728, nil, 1)
	if res.Scratch.Failures != 1 || res.Checkpointed.Failures != 1 {
		t.Fatalf("failures: scratch %d ckpt %d", res.Scratch.Failures, res.Checkpointed.Failures)
	}
	if res.Checkpointed.Seconds >= res.Scratch.Seconds {
		t.Fatalf("checkpointed %v s not faster than scratch %v s",
			res.Checkpointed.Seconds, res.Scratch.Seconds)
	}
	if res.Checkpointed.RedoneIterations > 1 {
		t.Fatalf("checkpointed run redid %d iterations", res.Checkpointed.RedoneIterations)
	}
}

// TestSDCAcceptance is the silent-data-corruption run, asserting the
// scenario's headline claim at N=9728: every injected strike is detected
// and localized, at least 90% are repaired by recomputing just the struck
// task (sdc-single and sdc-dma correct 100% without touching a checkpoint),
// the real-arithmetic LU residual stays under the HPL bound, and checksum
// verification costs less than 5% of the virtual makespan. Byte-identical
// for any worker count.
func TestSDCAcceptance(t *testing.T) {
	for _, sc := range []string{"sdc-single", "sdc-dma"} {
		res, err := SDCSweep(sc, DefaultSeed, 9728, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Injected == 0 {
			t.Fatalf("%s: no strikes delivered — the scenario tested nothing", sc)
		}
		if err := SDCVerdict(res); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if int64(res.Faulted.SDCDetected) != res.Injected {
			t.Fatalf("%s: %d delivered, %d detected", sc, res.Injected, res.Faulted.SDCDetected)
		}
		if f := res.CorrectedFrac(); f < SDCCorrectionTarget {
			t.Fatalf("%s: corrected %.1f%% of detections", sc, 100*f)
		}
		if !res.ResidualPassed {
			t.Fatalf("%s: real LU residual %g failed", sc, res.Residual)
		}
		if res.OverheadPct >= SDCVerifyBudgetPct {
			t.Fatalf("%s: verification overhead %.2f%%", sc, res.OverheadPct)
		}

		par, err := SDCSweep(sc, DefaultSeed, 9728, nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		res.Healthy.Part, res.VerifyClean.Part, res.Faulted.Part = nil, nil, nil
		par.Healthy.Part, par.VerifyClean.Part, par.Faulted.Part = nil, nil, nil
		if !reflect.DeepEqual(res, par) {
			t.Fatalf("%s: -par 1 and -par 8 sweeps diverged:\n%+v\nvs\n%+v", sc, res, par)
		}
	}
}
