package linpacksim

import (
	"errors"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
)

// TestStalledRunNeverBeatsHealthyTwin: a GPU variant with no CPU fallback
// cannot survive a device loss — its next submission fails — so under
// lost-gpu the run must stop at the stall and say so, on both steppers. The
// monolithic stepper used to ignore the hybrid runner's Stalled report,
// charging every stalled iteration zero update time: at N=19456, seed 7,
// ACMLG+pipe "sped up" from 167.9 to 185.4 GFLOPS by losing its GPU, while
// the graph stepper panicked on the same condition.
func TestStalledRunNeverBeatsHealthyTwin(t *testing.T) {
	for _, v := range []element.Variant{element.ACMLG, element.ACMLGPipe} {
		for _, graph := range []bool{false, true} {
			cfg := Config{N: 19456, NB: 1216, Variant: v, Seed: 7, Graph: graph, Lookahead: 1}
			healthy := Run(cfg)
			if healthy.Stalled || healthy.Err != nil || healthy.GFLOPS <= 0 {
				t.Fatalf("%v graph=%v: healthy twin did not finish: %+v", v, graph, healthy)
			}
			in, err := fault.NewScenario("lost-gpu", healthy.Seconds, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SDC = in
			res := Run(cfg)
			if !res.Stalled || !errors.Is(res.Err, ErrStalled) {
				t.Errorf("%v graph=%v: lost GPU without a fallback did not stall: %+v", v, graph, res)
			}
			if res.GFLOPS > healthy.GFLOPS || res.GFLOPS != 0 {
				t.Errorf("%v graph=%v: stalled run reports %.1f GFLOPS against healthy %.1f",
					v, graph, res.GFLOPS, healthy.GFLOPS)
			}
			// The run stops where the loss struck, not at the end of the matrix.
			if res.Iterations >= healthy.Iterations || res.Seconds >= healthy.Seconds {
				t.Errorf("%v graph=%v: stalled run went on to %d iterations / %.3f s (healthy %d / %.3f s)",
					v, graph, res.Iterations, res.Seconds, healthy.Iterations, healthy.Seconds)
			}
		}
	}
}

// TestStepAfterStallPanics: a stalled stepper must not be driven further.
func TestStepAfterStallPanics(t *testing.T) {
	cfg := Config{N: 9728, NB: 1216, Variant: element.ACMLG, Seed: 7}
	cfg.SDC = fault.New(7, fault.Event{Kind: fault.GPULoss, Start: 0.5, End: 1e9})
	s := NewSim(cfg)
	for !s.Done() && s.Err() == nil {
		s.Step()
	}
	if !errors.Is(s.Err(), ErrStalled) {
		t.Fatalf("run did not stall: err %v at t=%v", s.Err(), s.Time())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Step after a stall did not panic")
		}
	}()
	s.Step()
}
