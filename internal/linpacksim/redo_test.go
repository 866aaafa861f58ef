package linpacksim

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// redoGolden runs one instrumented Linpack to completion and returns the
// bundle plus the result.
func redoGolden(t *testing.T, fail bool, checkpoint bool) (*telemetry.Telemetry, Result) {
	t.Helper()
	tel := telemetry.New()
	cfg := Config{N: 9728, Variant: element.ACMLGBoth, Seed: 11, Telemetry: tel}
	if fail {
		// Half the healthy makespan; the healthy makespan is deterministic,
		// so measure it once uninstrumented.
		healthy := Run(Config{N: cfg.N, Variant: cfg.Variant, Seed: cfg.Seed})
		cfg.FailAts = []sim.Time{sim.Time(healthy.Seconds * 0.5)}
		cfg.Checkpoint = checkpoint
	}
	return tel, Run(cfg)
}

// TestRestoredRunDoesNotDoubleCountTelemetry is the checkpoint/restore
// telemetry golden: spans and counters booked by iterations that a failure
// restore throws away must not count against the run's totals, so a failed-
// and-restored run reports exactly the per-iteration event counts of an
// uninterrupted run — the redone work replaces the lost work, it does not
// add to it. (Booked *durations* legitimately differ: a restarted element
// sees fresh OS jitter by design, see the Checkpoint doc.)
func TestRestoredRunDoesNotDoubleCountTelemetry(t *testing.T) {
	telU, resU := redoGolden(t, false, false)
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{
		{"scratch-restart", false},
		{"checkpointed", true},
	} {
		name := tc.name
		telF, resF := redoGolden(t, true, tc.checkpoint)
		if resF.Failures != 1 {
			t.Fatalf("%s: expected exactly one injected failure, got %d", name, resF.Failures)
		}
		if resF.RedoneIterations <= 0 {
			t.Fatalf("%s: failure must redo at least one iteration", name)
		}
		for _, counter := range []string{"hybrid.gemms", "hybrid.flops", "adaptive.updates"} {
			u := telU.Counter(counter).Value()
			f := telF.Counter(counter).Value()
			if u != f {
				t.Errorf("%s: counter %s double-counts after restore: %d vs uninterrupted %d",
					name, counter, f, u)
			}
			if u == 0 {
				t.Errorf("counter %s never fired — the golden is vacuous", counter)
			}
		}
		for _, hist := range []string{"hybrid.gflops", "hybrid.balance_tc_over_tg"} {
			u := telU.Histogram(hist, nil).Count()
			f := telF.Histogram(hist, nil).Count()
			if u != f {
				t.Errorf("%s: histogram %s count after restore: %d vs uninterrupted %d",
					name, hist, f, u)
			}
		}
		// The gsplit evolution stream must hold one sample per committed
		// update, not one per executed update.
		u := len(telU.Trace.Series("adaptive.gsplit"))
		f := len(telF.Trace.Series("adaptive.gsplit"))
		if u != f {
			t.Errorf("%s: adaptive.gsplit samples %d vs uninterrupted %d", name, f, u)
		}
		if u == 0 {
			t.Error("no gsplit samples — the golden is vacuous")
		}
		if resF.Iterations != resU.Iterations {
			t.Errorf("%s: committed iterations %d vs uninterrupted %d",
				name, resF.Iterations, resU.Iterations)
		}
	}
}

// TestCheckpointSnapshotSkippedAfterSerialization: a checkpoint that went
// through JSON (another process restoring it) carries no telemetry snapshot;
// Restore must leave the live bundle untouched instead of rolling back to a
// state it never captured.
func TestCheckpointSnapshotSkippedAfterSerialization(t *testing.T) {
	tel := telemetry.New()
	s := NewSim(Config{N: 4864, Variant: element.ACMLGBoth, Seed: 5, Telemetry: tel})
	s.Step()
	cp := s.Checkpoint()
	if cp.tel == nil {
		t.Fatal("live checkpoint must capture a telemetry snapshot")
	}
	roundTripped := *cp
	roundTripped.tel = nil // what encoding/json would produce
	s.Step()
	before := tel.Trace.Len()
	if err := s.Restore(&roundTripped); err != nil {
		t.Fatal(err)
	}
	if tel.Trace.Len() != before {
		t.Fatal("restore without a snapshot must not truncate the trace")
	}
}
