package linpacksim

import (
	"encoding/json"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

func ckptConfig(variant element.Variant) Config {
	return Config{N: 4864, NB: 1216, Variant: variant, Seed: 2009}
}

// TestCheckpointRoundTripBitForBit: checkpointing mid-run, restoring
// immediately and continuing must reproduce the uninterrupted run exactly —
// same virtual seconds, same GFLOPS, bit for bit.
func TestCheckpointRoundTripBitForBit(t *testing.T) {
	for _, v := range []element.Variant{element.ACMLGBoth, element.ACMLG, element.CPUOnly} {
		cfg := ckptConfig(v)
		ref := Run(cfg)

		s := NewSim(cfg)
		s.Step()
		s.Step()
		cp := s.Checkpoint()
		// Serialize and reload the checkpoint, as a real restart would.
		blob, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var loaded Checkpoint
		if err := json.Unmarshal(blob, &loaded); err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(&loaded); err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			s.Step()
		}
		got := s.Result()
		if got.Seconds != ref.Seconds {
			t.Fatalf("%v: round-tripped run %v s, uninterrupted %v s", v, got.Seconds, ref.Seconds)
		}
		if got.GFLOPS != ref.GFLOPS {
			t.Fatalf("%v: round-tripped GFLOPS %v, uninterrupted %v", v, got.GFLOPS, ref.GFLOPS)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("%v: iterations %d vs %d", v, got.Iterations, ref.Iterations)
		}
	}
}

func TestRestoreValidates(t *testing.T) {
	s := NewSim(ckptConfig(element.ACMLGBoth))
	if err := s.Restore(&Checkpoint{J: -1}); err == nil {
		t.Fatal("negative position accepted")
	}
	if err := s.Restore(&Checkpoint{J: 0}); err == nil {
		t.Fatal("adaptive variant accepted a checkpoint without database_g")
	}
	s2 := NewSim(ckptConfig(element.ACMLG))
	if err := s2.Restore(&Checkpoint{J: 0, DatabaseG: []byte(`{}`)}); err == nil {
		t.Fatal("static variant accepted adaptive state")
	}
}

// TestFailoverCheckpointBeatsScratchRestart: with a failure injected
// mid-run, the checkpointed run redoes at most one iteration while the
// scratch restart redoes everything it had done — and finishes later.
func TestFailoverCheckpointBeatsScratchRestart(t *testing.T) {
	base := ckptConfig(element.ACMLGBoth)
	healthy := Run(base)

	failAt := healthy.Seconds * 0.5
	scratch := base
	scratch.FailAts = []sim.Time{failAt}
	scratchRes := Run(scratch)

	ckpt := scratch
	ckpt.Checkpoint = true
	ckptRes := Run(ckpt)

	if scratchRes.Failures != 1 || ckptRes.Failures != 1 {
		t.Fatalf("failures: scratch %d, checkpointed %d, want 1 each", scratchRes.Failures, ckptRes.Failures)
	}
	if ckptRes.RedoneIterations > 1 {
		t.Fatalf("checkpointed run redid %d iterations, want <= 1", ckptRes.RedoneIterations)
	}
	if scratchRes.RedoneIterations <= ckptRes.RedoneIterations {
		t.Fatalf("scratch redid %d, checkpointed %d — scratch must lose more", scratchRes.RedoneIterations, ckptRes.RedoneIterations)
	}
	if ckptRes.Seconds >= scratchRes.Seconds {
		t.Fatalf("checkpointed %v s not faster than scratch %v s", ckptRes.Seconds, scratchRes.Seconds)
	}
	if ckptRes.CheckpointSeconds <= 0 || scratchRes.CheckpointSeconds != 0 {
		t.Fatalf("checkpoint accounting: ckpt %v, scratch %v", ckptRes.CheckpointSeconds, scratchRes.CheckpointSeconds)
	}
	// Both runs still complete slower than the healthy one.
	if scratchRes.Seconds <= healthy.Seconds || ckptRes.Seconds <= healthy.Seconds {
		t.Fatal("a failed run finished faster than the healthy run")
	}
}

func TestFailoverRunsAreDeterministic(t *testing.T) {
	cfg := ckptConfig(element.ACMLGBoth)
	cfg.FailAts = []sim.Time{20}
	cfg.Checkpoint = true
	a := Run(cfg)
	b := Run(cfg)
	if a.Seconds != b.Seconds || a.RedoneIterations != b.RedoneIterations {
		t.Fatalf("failover runs diverged: %v/%d vs %v/%d",
			a.Seconds, a.RedoneIterations, b.Seconds, b.RedoneIterations)
	}
}
