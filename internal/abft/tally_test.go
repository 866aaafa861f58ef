package abft

import (
	"bytes"
	"testing"

	"tianhe/internal/fault"
	"tianhe/internal/telemetry"
)

// TestStrikeCountsEveryOutcomeOnce: a strike lands in exactly one of
// corrected (with its recompute) or escalated, a clean drain counts nothing,
// and the tally agrees with the injector's own delivered count.
func TestStrikeCountsEveryOutcomeOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sdc    *fault.Injector
		struck bool
		want   Outcome
	}{
		{"nil injector", nil, false, Recompute},
		{"outside the window", fault.New(3, fault.Event{Kind: fault.SDCKernel, Start: 50, End: 60, Magnitude: 1, Faults: 1}), false, Recompute},
		{"three faults", fault.New(3, fault.Event{Kind: fault.SDCKernel, Start: 0, End: 10, Magnitude: 1, Faults: 3}), true, Escalate},
	} {
		var tally Tally
		for seq := 0; seq < 20; seq++ {
			out, struck := tally.Strike(tc.sdc, seq, 1, 64, 64)
			if struck != tc.struck || (struck && out != tc.want) {
				t.Fatalf("%s seq %d: Strike = (%v, %v), want (%v, %v)", tc.name, seq, out, struck, tc.want, tc.struck)
			}
		}
		if got := tc.sdc.SDCDelivered(); int64(tally.SDCDetected) != got {
			t.Errorf("%s: tally detected %d, injector delivered %d", tc.name, tally.SDCDetected, got)
		}
		if tally.SDCCorrected+tally.SDCEscalated != tally.SDCDetected || tally.RecomputedTasks != tally.SDCCorrected {
			t.Errorf("%s: inconsistent tally %+v", tc.name, tally)
		}
	}

	// Single faults split between the data and the checksum row/column by
	// position: over many small tiles both outcomes occur, each counted once.
	var tally Tally
	sdc := fault.New(11, fault.Event{Kind: fault.SDCKernel, Start: 0, End: 10, Magnitude: 1, Faults: 1})
	for seq := 0; seq < 200; seq++ {
		tally.Strike(sdc, seq, 1, 2, 2)
	}
	if tally.SDCDetected != 200 || tally.SDCCorrected == 0 || tally.SDCEscalated == 0 ||
		tally.SDCCorrected+tally.SDCEscalated != 200 || tally.RecomputedTasks != tally.SDCCorrected {
		t.Errorf("2x2 tiles, 200 single-fault strikes: %+v", tally)
	}
}

// TestProbesRegisterOnFirstPublish: the metric names are the ones the hybrid
// and taskgraph dumps have always carried, absent until something publishes.
func TestProbesRegisterOnFirstPublish(t *testing.T) {
	tel := telemetry.New()
	pr := NewProbes(tel, "hybrid")
	var dump bytes.Buffer
	tel.Metrics.WriteText(&dump)
	if dump.Len() != 0 {
		t.Fatalf("probes registered before the first Publish:\n%s", dump.String())
	}
	one := Tally{SDCDetected: 3, SDCCorrected: 2, SDCEscalated: 1, RecomputedTasks: 2, VerifySeconds: 0.25}
	sum := one
	sum.Add(one)
	pr.Publish(one)
	pr.Publish(one)
	for name, want := range map[string]int64{
		"hybrid.sdc.detected": int64(sum.SDCDetected), "hybrid.sdc.corrected": int64(sum.SDCCorrected),
		"hybrid.sdc.escalated": int64(sum.SDCEscalated),
	} {
		if got := tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := tel.Gauge("hybrid.abft.verify_seconds").Value(); got != sum.VerifySeconds {
		t.Errorf("hybrid.abft.verify_seconds = %v, want %v", got, sum.VerifySeconds)
	}
}
