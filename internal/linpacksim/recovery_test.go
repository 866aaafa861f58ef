package linpacksim

import (
	"errors"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

// TestRestoreNewestAllGenerationsCorrupted is the ISSUE 10 regression: when
// every held checkpoint generation is corrupted at rest, RestoreNewest must
// return the typed exhaustion error — not panic, not silently reinstall
// poisoned state — so Run can fall back to a clean restart.
func TestRestoreNewestAllGenerationsCorrupted(t *testing.T) {
	cfg := ckptConfig(element.ACMLGBoth)
	s := NewSim(cfg)
	var cps []*Checkpoint
	for i := 0; i < 3; i++ {
		s.Step()
		cps = append(cps, s.Checkpoint())
	}
	for _, cp := range cps {
		cp.Sum ^= 0xdead
	}
	idx, err := s.RestoreNewest(cps)
	if !errors.Is(err, ErrCheckpointsExhausted) {
		t.Fatalf("RestoreNewest on 3 corrupted generations: idx=%d err=%v, want ErrCheckpointsExhausted", idx, err)
	}
	// An empty chain is exhausted too — the same typed error.
	if _, err := s.RestoreNewest(nil); !errors.Is(err, ErrCheckpointsExhausted) {
		t.Fatalf("RestoreNewest on empty chain: %v, want ErrCheckpointsExhausted", err)
	}
}

// TestCorruptedStoreFallsBackToCleanRestart drives the exhaustion path
// through Run: the checkpoint store is poisoned mid-run, then an element
// dies. The run must complete (degraded, never stopped), redoing every
// iteration from zero instead of the checkpointed handful.
func TestCorruptedStoreFallsBackToCleanRestart(t *testing.T) {
	cfg := Config{N: 9728, Variant: element.ACMLGBoth, Seed: 11, Checkpoint: true}
	healthy := healthyHorizon(cfg)
	cfg.FailAts = []sim.Time{sim.Time(0.6 * healthy)}

	// Baseline: the store is intact, so failover restores the last
	// checkpoint and redoes at most the iteration in flight.
	intact := Run(cfg)
	if intact.Failures != 1 {
		t.Fatalf("intact run failures = %d, want 1", intact.Failures)
	}

	cfg.CorruptCheckpointsAt = sim.Time(0.4 * healthy)
	res := Run(cfg)
	if res.Failures != 1 {
		t.Fatalf("corrupted-store run failures = %d, want 1", res.Failures)
	}
	if res.Iterations != intact.Iterations {
		t.Fatalf("corrupted-store run finished %d iterations, want %d", res.Iterations, intact.Iterations)
	}
	if res.RedoneIterations <= intact.RedoneIterations {
		t.Fatalf("clean restart redid %d iterations, intact failover %d — exhaustion must cost more",
			res.RedoneIterations, intact.RedoneIterations)
	}
	if res.Seconds <= intact.Seconds {
		t.Fatalf("clean restart took %.3fs, intact failover %.3fs — exhaustion must cost more",
			res.Seconds, intact.Seconds)
	}
	// The degraded path is still deterministic.
	again := Run(cfg)
	if again.Seconds != res.Seconds || again.RedoneIterations != res.RedoneIterations {
		t.Fatalf("corrupted-store run not deterministic: %.6f/%d vs %.6f/%d",
			res.Seconds, res.RedoneIterations, again.Seconds, again.RedoneIterations)
	}
}

// TestSequentialFailuresRunToCompletion: K element deaths spread across the
// run (the FailAts schedule) each trigger one failover, and the run still
// finishes every iteration — the first-failure-only limitation is gone.
func TestSequentialFailuresRunToCompletion(t *testing.T) {
	cfg := Config{N: 9728, Variant: element.ACMLGBoth, Seed: 11, Checkpoint: true}
	healthy := healthyHorizon(cfg)
	ref := Run(cfg)
	cfg.FailAts = []sim.Time{sim.Time(0.25 * healthy), sim.Time(0.5 * healthy), sim.Time(0.75 * healthy)}
	res := Run(cfg)
	if res.Failures != 3 {
		t.Fatalf("failures = %d, want 3", res.Failures)
	}
	if res.Iterations != ref.Iterations {
		t.Fatalf("finished %d iterations, want %d", res.Iterations, ref.Iterations)
	}
	if res.Seconds <= ref.Seconds {
		t.Fatalf("three failovers took %.3fs, healthy checkpointed run %.3fs", res.Seconds, ref.Seconds)
	}
	if res.RedoneIterations < 3 {
		t.Fatalf("redone = %d, want at least one iteration per failure", res.RedoneIterations)
	}
}

// TestInjectorElementFailuresJoinSchedule: an element-fail scenario composed
// with SDC strikes ("element-fail+sdc-single") drives both seams of the same
// Run — the death comes off the injector's schedule, the bit flips off its
// strike plan — and the whole composition replays deterministically.
func TestInjectorElementFailuresJoinSchedule(t *testing.T) {
	cfg := sdcConfig("element-fail+sdc-single", 47)
	res := Run(cfg)
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (element-fail schedules one death at 0.5h)", res.Failures)
	}
	if res.SDCDetected == 0 {
		t.Fatal("composed scenario delivered no SDC strikes")
	}
	again := Run(sdcConfig("element-fail+sdc-single", 47))
	if again.Seconds != res.Seconds || again.Failures != res.Failures ||
		again.SDCDetected != res.SDCDetected || again.RedoneIterations != res.RedoneIterations {
		t.Fatalf("composed run not deterministic:\n  first  %+v\n  second %+v", res, again)
	}
}
