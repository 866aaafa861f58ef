package linpacksim

import (
	"encoding/json"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/sim"
)

func graphConfig(lookahead int) Config {
	return Config{N: 4864, NB: 1216, Variant: element.ACMLGBoth, Seed: 2009,
		Graph: true, Lookahead: lookahead}
}

func TestGraphModeDeterministic(t *testing.T) {
	cfg := graphConfig(1)
	a := Run(cfg)
	b := Run(cfg)
	if a.Seconds != b.Seconds || a.GFLOPS != b.GFLOPS || a.Iterations != b.Iterations {
		t.Fatalf("graph runs diverged: %v/%v/%d vs %v/%v/%d",
			a.Seconds, a.GFLOPS, a.Iterations, b.Seconds, b.GFLOPS, b.Iterations)
	}
	if a.Seconds <= 0 || a.GFLOPS <= 0 {
		t.Fatalf("degenerate graph run: %+v", a)
	}
}

// TestGraphCheckpointRoundTripBitForBit extends the checkpoint guarantee to
// graph mode: the affinity database, the look-ahead panel state and the ABFT
// task counter must all round-trip through the serialized checkpoint.
func TestGraphCheckpointRoundTripBitForBit(t *testing.T) {
	for _, v := range []element.Variant{element.ACMLGBoth, element.CPUOnly} {
		cfg := ckptConfig(v)
		cfg.Graph = true
		cfg.Lookahead = 1
		ref := Run(cfg)

		s := NewSim(cfg)
		s.Step()
		s.Step()
		cp := s.Checkpoint()
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
		if got.Seconds != ref.Seconds || got.GFLOPS != ref.GFLOPS {
			t.Fatalf("%v: round-tripped graph run %v s / %v GFLOPS, uninterrupted %v s / %v GFLOPS",
				v, got.Seconds, got.GFLOPS, ref.Seconds, ref.GFLOPS)
		}
	}
}

// TestGraphCPUOnlyNeverTouchesTheDevice: hpl's LU codelet set carries a GPU
// model, and a CPU-only stepper clears it on its own copy, so at either
// look-ahead depth neither the GPU queue nor its DMA engine books a span.
func TestGraphCPUOnlyNeverTouchesTheDevice(t *testing.T) {
	for _, lookahead := range []int{0, 1} {
		s := NewSim(Config{N: 1024, Variant: element.CPUOnly, Seed: 2009, Graph: true, Lookahead: lookahead})
		dev := s.Element().GPU
		booked := 0
		for _, tl := range []*sim.Timeline{dev.Queue, dev.DMA} {
			tl.SetObserver(func(sim.Span) { booked++ })
		}
		for !s.Done() {
			s.Step()
		}
		if res := s.Result(); s.Err() != nil || res.Iterations < 2 {
			t.Fatalf("look-ahead %d: run stopped after %d iterations: %v", lookahead, res.Iterations, s.Err())
		}
		if booked != 0 || dev.Queue.Busy() != 0 || dev.DMA.Busy() != 0 {
			t.Errorf("look-ahead %d: the device booked %d spans (queue busy %v s, DMA busy %v s)",
				lookahead, booked, dev.Queue.Busy(), dev.DMA.Busy())
		}
	}
}

// TestGraphLookaheadBeatsBulkSynchronous is the look-ahead acceptance at the
// paper's Fig-8 problem size: expressing the next panel as a dataflow task
// that overlaps the trailing update must beat booking it bulk-synchronously.
func TestGraphLookaheadBeatsBulkSynchronous(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig-8 scale run")
	}
	depth0 := Run(Config{N: 46000, NB: 1216, Variant: element.ACMLGBoth, Seed: 7,
		Graph: true, Lookahead: 0})
	depth1 := Run(Config{N: 46000, NB: 1216, Variant: element.ACMLGBoth, Seed: 7,
		Graph: true, Lookahead: 1})
	if depth1.GFLOPS <= depth0.GFLOPS {
		t.Fatalf("look-ahead 1 reached %v GFLOPS, not above depth 0's %v", depth1.GFLOPS, depth0.GFLOPS)
	}
	// The gain must be measurable, not noise: every early panel (~3.7 virtual
	// seconds of host work) comes off the critical path.
	if gain := depth1.GFLOPS / depth0.GFLOPS; gain < 1.01 {
		t.Fatalf("look-ahead gain %.4fx below the 1%% acceptance floor", gain)
	}
}

// TestGraphLookaheadDepthSaturates pins the depth-saturation property the
// Config.Lookahead docs assert: in the per-iteration stepper, depth 2 must
// schedule byte-identically to depth 1 — panel(k+2) reads tiles that only
// exist as upd(k+1,·,·) outputs of the NEXT window, so only one panel can
// ever be embedded ahead. This is a structural property of the windowed
// graphs, not pipeline saturation (hpl.BuildLUGraph's whole-graph form
// expresses deeper overlap). The depth-0 contrast keeps the assertion
// non-vacuous: depth actually changes the schedule up to 1, then saturates.
func TestGraphLookaheadDepthSaturates(t *testing.T) {
	depth0 := Run(graphConfig(0))
	depth1 := Run(graphConfig(1))
	depth2 := Run(graphConfig(2))
	if depth1.Seconds == depth0.Seconds {
		t.Fatalf("depth 1 schedules identically to depth 0 (%v s) — look-ahead is dead", depth1.Seconds)
	}
	if depth2.Seconds != depth1.Seconds || depth2.GFLOPS != depth1.GFLOPS {
		t.Fatalf("depth 2 (%v s, %v GFLOPS) differs from depth 1 (%v s, %v GFLOPS) — "+
			"the per-iteration window should be unable to embed panel(k+2)",
			depth2.Seconds, depth2.GFLOPS, depth1.Seconds, depth1.GFLOPS)
	}
}

// TestGraphHybridClosesMonolithicGap is the tentpole acceptance at the Fig-8
// problem size: graph look-ahead plus the hybrid codelet variant must meet or
// beat the monolithic loop's intra-update split, closing the gap PR 8 left
// (graph-d1 trailed monolithic by ~15% because every tile ran whole on one
// device).
func TestGraphHybridClosesMonolithicGap(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig-8 scale run")
	}
	base := Config{N: 46080, NB: 1216, Variant: element.ACMLGBoth, Seed: 2009}
	mono := Run(base)

	graph := base
	graph.Graph = true
	graph.Lookahead = 1
	plain := Run(graph)

	hyb := graph
	hyb.GraphHybrid = true
	res := Run(hyb)

	if res.GFLOPS < mono.GFLOPS {
		t.Fatalf("graph+hybrid %v GFLOPS below monolithic %v — gap not closed",
			res.GFLOPS, mono.GFLOPS)
	}
	if res.GFLOPS <= plain.GFLOPS {
		t.Fatalf("hybrid variants gained nothing over whole-tile graph: %v vs %v GFLOPS",
			res.GFLOPS, plain.GFLOPS)
	}
}

// TestGraphModeSDCRecovery runs the graph path through the sdc-single and
// sdc-burst scenarios: detection stays total (every delivered strike is
// caught at a task drain), localizable strikes recompute in place, and
// escalations drain through the existing checkpoint-restore machinery.
func TestGraphModeSDCRecovery(t *testing.T) {
	for _, scen := range []string{"sdc-single", "sdc-burst"} {
		cfg := Config{N: 9728, NB: 1216, Variant: element.ACMLGBoth, Seed: 47,
			Graph: true, Lookahead: 1, Checkpoint: true}
		horizon := healthyHorizon(cfg)
		in, err := fault.NewScenario(scen, horizon, 47)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SDC = in
		res := Run(cfg)
		if res.SDCDetected == 0 {
			t.Fatalf("%s: delivered no strikes at N=%d", scen, cfg.N)
		}
		if got := in.SDCDelivered(); got != int64(res.SDCDetected) {
			t.Fatalf("%s: injector delivered %d strikes, run detected %d — detection must be total",
				scen, got, res.SDCDetected)
		}
		if res.SDCCorrected+res.SDCEscalated != res.SDCDetected {
			t.Fatalf("%s: outcome counts inconsistent: %+v", scen, res)
		}
		if scen == "sdc-burst" && res.SDCRestores == 0 {
			t.Fatalf("sdc-burst: escalations never forced a checkpoint restore: %+v", res)
		}
	}
}

// TestGraphModeLostGPURecovers runs the graph path through a GPU context
// loss: the adaptive scheduler falls back to the CPU cores during the outage
// and returns to the GPU after recovery, finishing slower than healthy but
// finishing.
func TestGraphModeLostGPURecovers(t *testing.T) {
	cfg := graphConfig(1)
	healthy := Run(cfg)

	in, err := fault.NewScenario("lost-gpu", healthy.Seconds, 13)
	if err != nil {
		t.Fatal(err)
	}
	struck := cfg
	struck.SDC = in
	res := Run(struck)
	if res.Seconds <= healthy.Seconds {
		t.Fatalf("outage run %v s not slower than healthy %v s", res.Seconds, healthy.Seconds)
	}
	if res.Iterations < healthy.Iterations {
		t.Fatalf("outage run finished only %d of %d iterations", res.Iterations, healthy.Iterations)
	}
}
