package fault

import (
	"math"
	"strings"
	"testing"

	"tianhe/internal/telemetry"
)

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if f := in.KernelFactor(5); f != 1 {
		t.Fatalf("nil KernelFactor = %v", f)
	}
	if f := in.TransferFactor(5); f != 1 {
		t.Fatalf("nil TransferFactor = %v", f)
	}
	if in.LostIn(0, 1e9) {
		t.Fatal("nil injector lost")
	}
	if r := in.RestoredAt(7); r != 7 {
		t.Fatalf("nil RestoredAt = %v", r)
	}
	if d := in.StretchGPU("k", 0, 3); d != 3 {
		t.Fatalf("nil StretchGPU = %v", d)
	}
	if f := in.CoreFactor(0, 5); f != 1 {
		t.Fatalf("nil CoreFactor = %v", f)
	}
	if dur, drop := in.AdjustMessage(0, 1, 8, 0, 2e-6); dur != 2e-6 || drop {
		t.Fatalf("nil AdjustMessage = %v, %v", dur, drop)
	}
	if len(in.ElementFailures()) != 0 {
		t.Fatal("nil injector schedules a failure")
	}
	if in.Events() != nil || in.Seed() != 0 {
		t.Fatal("nil accessors not zero")
	}
	in.SetRanksPerCabinet(4) // must not panic
	in.Instrument(telemetry.New())
}

func TestHealthFactorsCompose(t *testing.T) {
	in := New(1,
		Event{Kind: GPUDegrade, Start: 10, End: 20, Factor: 0.5},
		Event{Kind: GPUDegrade, Start: 15, End: 30, Factor: 0.8},
		Event{Kind: DMADegrade, Start: 12, End: 18, Factor: 0.25},
		Event{Kind: GPULoss, Start: 40, End: 50},
	)
	cases := []struct {
		t          float64
		kern, xfer float64
	}{
		{5, 1, 1},
		{12, 0.5, 0.25},
		{17, 0.5 * 0.8, 0.25},
		{25, 0.8, 1},
		{45, 0, 0},
		{50, 1, 1}, // half-open window: restored exactly at End
	}
	for _, c := range cases {
		if got := in.KernelFactor(c.t); math.Abs(got-c.kern) > 1e-15 {
			t.Errorf("KernelFactor(%v) = %v, want %v", c.t, got, c.kern)
		}
		if got := in.TransferFactor(c.t); math.Abs(got-c.xfer) > 1e-15 {
			t.Errorf("TransferFactor(%v) = %v, want %v", c.t, got, c.xfer)
		}
	}
}

func TestLossWindows(t *testing.T) {
	in := New(1,
		Event{Kind: GPULoss, Start: 10, End: 20},
		Event{Kind: GPULoss, Start: 20, End: 25}, // adjacent: one outage chain
	)
	if !in.LostIn(5, 15) || !in.LostIn(12, 13) || !in.LostIn(24, 99) {
		t.Fatal("overlapping windows not detected")
	}
	if in.LostIn(0, 9) || in.LostIn(25, 30) {
		t.Fatal("phantom loss outside windows")
	}
	// A context created exactly at restore time is healthy.
	if in.LostIn(25, 25) {
		t.Fatal("lost at the restore instant")
	}
	if r := in.RestoredAt(12); r != 25 {
		t.Fatalf("RestoredAt(12) = %v, want 25 (chained windows)", r)
	}
	if r := in.RestoredAt(3); r != 3 {
		t.Fatalf("RestoredAt outside loss = %v", r)
	}
}

func TestStretchInsertsStallOverlap(t *testing.T) {
	in := New(1,
		Event{Kind: GPUStall, Start: 12, End: 15},
		Event{Kind: GPUStall, Start: 40, End: 41},
	)
	cases := []struct {
		start, dur, want float64
	}{
		{0, 5, 5},    // ends before any stall
		{10, 10, 13}, // swallows stall fully: +3
		{13, 4, 6},   // starts inside the stall: +2 remaining
		{10, 29, 33}, // stretched past 40, runs into the second stall too
		{50, 3, 3},   // after all stalls
	}
	for _, c := range cases {
		if got := in.StretchGPU("gemm", c.start, c.dur); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StretchGPU(%v, %v) = %v, want %v", c.start, c.dur, got, c.want)
		}
	}
}

func TestCoreFactorThrottleAndStormDeterminism(t *testing.T) {
	ev := []Event{
		{Kind: CPUThrottle, Start: 0, End: 100, Factor: 0.5, Core: 1},
		{Kind: CPUThrottle, Start: 0, End: 100, Factor: 0.9, Core: -1},
		{Kind: CPUJitterStorm, Start: 50, End: 100, Magnitude: 0.4},
	}
	a, b := New(7, ev...), New(7, ev...)
	// Outside the storm: pure throttle composition, no randomness.
	if f := a.CoreFactor(1, 10); math.Abs(f-0.45) > 1e-15 {
		t.Fatalf("core 1 factor %v, want 0.45", f)
	}
	if f := a.CoreFactor(0, 10); math.Abs(f-0.9) > 1e-15 {
		t.Fatalf("core 0 factor %v, want 0.9", f)
	}
	// Inside the storm: random but (a) a genuine slowdown, (b) identical
	// across injectors with the same seed, per core in draw order.
	for core := 0; core < 3; core++ {
		for i := 0; i < 20; i++ {
			fa, fb := a.CoreFactor(core, 60), b.CoreFactor(core, 60)
			if fa != fb {
				t.Fatalf("core %d draw %d: %v != %v", core, i, fa, fb)
			}
			if fa <= 0 || fa > 1 {
				t.Fatalf("storm factor %v outside (0, 1]", fa)
			}
		}
	}
}

func TestAdjustMessageDegradeAndCabinetGating(t *testing.T) {
	in := New(3,
		Event{Kind: LinkDegrade, Start: 0, End: 100, Factor: 0.5, CrossCabinetOnly: true},
	)
	in.SetRanksPerCabinet(4)
	if dur, _ := in.AdjustMessage(0, 3, 1024, 10, 2e-6); dur != 2e-6 {
		t.Fatalf("intra-cabinet message degraded: %v", dur)
	}
	if dur, _ := in.AdjustMessage(0, 4, 1024, 10, 2e-6); math.Abs(dur-4e-6) > 1e-18 {
		t.Fatalf("cross-cabinet message %v, want 4e-6", dur)
	}
	// Without topology info every pair is one cabinet: no degrade applies.
	in2 := New(3, Event{Kind: LinkDegrade, Start: 0, End: 100, Factor: 0.5, CrossCabinetOnly: true})
	if dur, _ := in2.AdjustMessage(0, 9, 1024, 10, 2e-6); dur != 2e-6 {
		t.Fatalf("degrade applied without cabinet layout: %v", dur)
	}
}

func TestAdjustMessageDropDeterminism(t *testing.T) {
	ev := []Event{{Kind: LinkDrop, Start: 0, End: 1e6, Magnitude: 0.3}}
	a, b := New(11, ev...), New(11, ev...)
	drops := 0
	for i := 0; i < 500; i++ {
		_, da := a.AdjustMessage(2, 5, 64, float64(i), 1e-6)
		_, db := b.AdjustMessage(2, 5, 64, float64(i), 1e-6)
		if da != db {
			t.Fatalf("attempt %d: drop decision diverged", i)
		}
		if da {
			drops++
		}
	}
	if drops < 100 || drops > 200 {
		t.Fatalf("%d/500 drops at p=0.3 — stream broken", drops)
	}
	// Different senders consume different streams.
	same := 0
	c := New(11, ev...)
	for i := 0; i < 200; i++ {
		_, d2 := a.AdjustMessage(2, 5, 64, float64(i), 1e-6)
		_, d7 := c.AdjustMessage(7, 5, 64, float64(i), 1e-6)
		if d2 == d7 {
			same++
		}
	}
	if same == 200 {
		t.Fatal("rank 2 and rank 7 share a drop stream")
	}
}

func TestElementFailAt(t *testing.T) {
	in := New(1,
		Event{Kind: ElementFail, Start: 90},
		Event{Kind: ElementFail, Start: 40},
	)
	fs := in.ElementFailures()
	if len(fs) != 2 || fs[0].Start != 40 || fs[1].Start != 90 {
		t.Fatalf("ElementFailures = %+v; want the failures at 40 then 90", fs)
	}
	if len(New(1).ElementFailures()) != 0 {
		t.Fatal("failure scheduled on an empty injector")
	}
}

func TestValidation(t *testing.T) {
	bad := []Event{
		{Kind: GPUDegrade, Start: 5, End: 1, Factor: 0.5},
		{Kind: GPUDegrade, Start: 0, End: 1, Factor: 0},
		{Kind: GPUDegrade, Start: 0, End: 1, Factor: 1.5},
		{Kind: LinkDrop, Start: 0, End: 1, Magnitude: 1.2},
		{Kind: CPUJitterStorm, Start: 0, End: 1, Magnitude: -0.1},
	}
	for i, e := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: event %+v accepted", i, e)
				}
			}()
			New(1, e)
		}()
	}
	// Overlapping stalls are a scheduling error.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping stalls accepted")
			}
		}()
		New(1,
			Event{Kind: GPUStall, Start: 0, End: 5},
			Event{Kind: GPUStall, Start: 4, End: 6},
		)
	}()
}

func TestScenarios(t *testing.T) {
	for _, name := range Scenarios {
		events, err := Scenario(name, 120)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "healthy" {
			if len(events) != 0 {
				t.Fatalf("healthy scenario has %d events", len(events))
			}
			continue
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty scenario", name)
		}
		if _, err := NewScenario(name, 120, 42); err != nil {
			t.Fatalf("NewScenario(%s): %v", name, err)
		}
	}
	if _, err := Scenario("meteor-strike", 120); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario error = %v", err)
	}
	if _, err := Scenario("healthy", 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestInstrumentEmitsScheduleAsTrace(t *testing.T) {
	tel := telemetry.New()
	in, err := NewScenario("jitter-storm", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Instrument(tel)
	if tel.Trace.Len() != len(in.Events()) {
		t.Fatalf("trace has %d events, schedule has %d", tel.Trace.Len(), len(in.Events()))
	}
	if g := tel.Gauge("fault.scheduled_events").Value(); g != float64(len(in.Events())) {
		t.Fatalf("scheduled_events gauge = %v", g)
	}
	// Dynamic probes: a stretched booking feeds the stall counter.
	in2 := New(1, Event{Kind: GPUStall, Start: 5, End: 6})
	in2.Instrument(tel)
	in2.StretchGPU("gemm", 4, 2)
	if c := tel.Counter("fault.gpu.stall_stretches").Value(); c != 1 {
		t.Fatalf("stall counter = %d", c)
	}
}

func TestKindStrings(t *testing.T) {
	for k := GPUDegrade; k <= ElementFail; k++ {
		if s := k.String(); strings.Contains(s, "fault.kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("out-of-range kind string %q", s)
	}
}
