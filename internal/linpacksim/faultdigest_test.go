package linpacksim

import (
	"bytes"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
	"tianhe/internal/telemetry"
)

// traceInto folds every recorded trace event — resource spans, fault and ABFT
// instants, counter samples — and the sorted metric dump into d.
func traceInto(d simtest.Digest, tel *telemetry.Telemetry) (events int, instants map[string]int) {
	instants = map[string]int{}
	for _, e := range tel.Trace.Events() {
		d.U64(uint64(e.Phase))
		d.Str(e.Track)
		d.Str(e.Name)
		d.Float(e.Start)
		d.Float(e.End)
		d.Float(e.Value)
		if e.Phase == telemetry.PhaseInstant {
			instants[e.Name]++
		}
		events++
	}
	var dump bytes.Buffer
	tel.Metrics.WriteText(&dump)
	d.Str(dump.String())
	return events, instants
}

// faultArmDigest runs one checkpointed, verified Linpack under the composed
// lost-gpu+sdc-single scenario and hashes everything the device-fault path can
// move: every span the element's timelines booked, the fallback / re-init /
// recompute instants, the metric dump, the SDC tally and the makespan.
func faultArmDigest(t *testing.T, cfg Config) (uint64, int) {
	t.Helper()
	horizon := Run(cfg).Seconds
	in, err := fault.NewScenario("lost-gpu+sdc-single", horizon, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	cfg.Telemetry, cfg.Checkpoint, cfg.Verify, cfg.SDC = tel, true, true, in
	res := Run(cfg)

	d := simtest.NewDigest()
	events, instants := traceInto(d, tel)
	for _, v := range []int{res.SDCDetected, res.SDCCorrected, res.SDCEscalated, res.SDCRestores,
		res.Failures, res.RedoneIterations, res.Iterations} {
		d.U64(uint64(v))
	}
	d.Float(res.VerifySeconds)
	d.Float(res.CheckpointSeconds)
	d.Float(res.Seconds)
	// The arm is only a pin of the fault path if the run went through it.
	if instants["gpu.fallback"] == 0 || instants["gpu.reinit"] == 0 || res.SDCCorrected == 0 {
		t.Errorf("%v graph=%v: fault arm missed the path: instants %v, tally %d/%d/%d",
			cfg.Variant, cfg.Graph, instants, res.SDCDetected, res.SDCCorrected, res.SDCEscalated)
	}
	return d.Sum64(), events
}

// pipelineSDCDigest runs the CT/NT executor under sdc-single with verification
// on and hashes both device timelines, the trace, the metric dump and the
// report.
func pipelineSDCDigest(t *testing.T) (uint64, int) {
	t.Helper()
	opts := pipeline.Pipelined()
	opts.Tile = 1024
	run := func(tel *telemetry.Telemetry, sdc *fault.Injector) (pipeline.Report, *gpu.Device) {
		dev := gpu.New(gpu.Config{Virtual: true})
		o := opts
		o.Telemetry = tel
		ex := pipeline.NewExecutor(dev, o)
		if sdc != nil {
			ex.EnableVerify(sdc)
		}
		return ex.ExecuteVirtual(8192, 4096, 2048, 1, 0), dev
	}
	clean, _ := run(nil, nil)
	in, err := fault.NewScenario("sdc-single", clean.End, 2009)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	rep, dev := run(tel, in)

	d := simtest.NewDigest()
	spans := 0
	for _, tl := range []*sim.Timeline{dev.Queue, dev.DMA} {
		spans += d.Timeline(tl)
	}
	events, _ := traceInto(d, tel)
	for _, v := range []int{rep.Tasks, rep.SDCDetected, rep.SDCCorrected, rep.SDCEscalated, rep.RecomputedTasks} {
		d.U64(uint64(v))
	}
	for _, v := range []int64{rep.BytesIn, rep.BytesOut, rep.BytesSkipped} {
		d.U64(uint64(v))
	}
	d.Float(rep.VerifySeconds)
	d.Float(rep.End)
	if rep.SDCCorrected == 0 || rep.SDCDetected == rep.Tasks {
		t.Errorf("pipeline arm: %d of %d tasks struck, %d corrected — not a strict-subset strike run",
			rep.SDCDetected, rep.Tasks, rep.SDCCorrected)
	}
	return d.Sum64(), spans + events
}

// TestFaultArmDigest pins, at exact equality, the fault arms no other golden
// covers: a Linpack run that loses its GPU mid-run while single-element
// corruption strikes its tasks — on the graph stepper, the graph stepper with
// hybrid bands and the monolithic hybrid runner — and the pipeline executor's
// verify / recompute drain. The digests were recorded on the commit before
// the loss gate, the trust curve and the ABFT verdict were folded into one
// copy each; change them only together with a deliberate policy change.
func TestFaultArmDigest(t *testing.T) {
	base := Config{N: 19456, NB: 1216, Variant: element.ACMLGBoth, Seed: 7}
	graph := base
	graph.Graph, graph.Lookahead = true, 1
	hyb := graph
	hyb.GraphHybrid = true
	for _, tc := range []struct {
		name   string
		run    func() (uint64, int)
		want   uint64
		events int
	}{
		{"graph-d1", func() (uint64, int) { return faultArmDigest(t, graph) }, 0xcd27b857ac332311, 4551},
		{"graph-d1-hyb", func() (uint64, int) { return faultArmDigest(t, hyb) }, 0xf8d034938693ef50, 834},
		{"monolithic-both", func() (uint64, int) { return faultArmDigest(t, base) }, 0xfe18f589de44f2ba, 990},
		{"pipeline-sdc", func() (uint64, int) { return pipelineSDCDigest(t) }, 0x009d7fd096ffc345, 384},
	} {
		got, events := tc.run()
		if got != tc.want || events != tc.events {
			t.Errorf("%s: digest %#016x over %d events, want %#016x over %d", tc.name, got, events, tc.want, tc.events)
		}
	}
}
