package gpu

import (
	"testing"

	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// countReinits returns how many context re-initializations the tracer
// captured.
func countReinits(tr *telemetry.Tracer) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Name == "reinit" {
			n++
		}
	}
	return n
}

// TestLossGateTransitions drives one gate per case through a sequence of
// submissions around a single loss window [10, 20) and checks every
// transition, that an unarmed gate never changes anything, and that the
// context is rebuilt exactly once per window however often the gate is asked.
func TestLossGateTransitions(t *testing.T) {
	type step struct {
		at   sim.Time
		want Admission
	}
	for _, tc := range []struct {
		name    string
		armed   bool
		steps   []step
		reinits int
	}{
		{"armed/before", true, []step{{2, Admitted}, {9.99, Admitted}}, 0},
		{"armed/inside", true, []step{{5, Admitted}, {10, FellBack}, {12, StillDown}, {19.99, StillDown}}, 0},
		{"armed/after", true, []step{{12, FellBack}, {20, Recovered}, {21, Admitted}, {500, Admitted}}, 1},
		{"armed/first-seen-after", true, []step{{25, Recovered}, {25, Admitted}, {26, Admitted}}, 1},
		{"unarmed/before", false, []step{{2, Admitted}, {9.99, Admitted}}, 0},
		{"unarmed/inside", false, []step{{10, Stalled}, {15, Stalled}}, 0},
		{"unarmed/after", false, []step{{15, Stalled}, {20, Stalled}, {1e6, Stalled}}, 0},
	} {
		d := New(Config{Virtual: true})
		d.SetHealth(stubHealth{kern: 1, xfer: 1, lossFrom: 10, lossTo: 20})
		tel := telemetry.New()
		telemetry.AttachTimelines(tel, "resource", "", d.Queue)
		g := NewLossGate(d)
		for i, st := range tc.steps {
			got, sp := g.Admit(st.at, tc.armed)
			if got != st.want {
				t.Errorf("%s step %d: Admit(%v) = %d, want %d", tc.name, i, st.at, got, st.want)
			}
			if got == Recovered {
				if sp.Start < st.at || sp.Duration() != ReinitSeconds {
					t.Errorf("%s step %d: re-init span %+v for a submission at %v", tc.name, i, sp, st.at)
				}
				if dma := d.DMA.Available(); dma < sp.End {
					t.Errorf("%s step %d: DMA engine free at %v, before the context exists at %v", tc.name, i, dma, sp.End)
				}
			} else if sp != (sim.Span{}) {
				t.Errorf("%s step %d: outcome %d carries a span %+v", tc.name, i, got, sp)
			}
		}
		if got := countReinits(tel.Trace); got != tc.reinits {
			t.Errorf("%s: %d re-initializations booked, want %d", tc.name, got, tc.reinits)
		}
	}
}

// TestLossAtClassifies pins the pure classification the gate and the serving
// dispatcher read.
func TestLossAtClassifies(t *testing.T) {
	d := New(Config{Virtual: true})
	if d.LossAt(15) != Live {
		t.Fatal("a device with no health source is not Live")
	}
	d.SetHealth(stubHealth{kern: 1, xfer: 1, lossFrom: 10, lossTo: 20})
	for _, tc := range []struct {
		at   sim.Time
		want Loss
	}{{5, Live}, {10, Outage}, {19.99, Outage}, {20, Restorable}, {1e6, Restorable}} {
		if got := d.LossAt(tc.at); got != tc.want {
			t.Errorf("LossAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
	g := NewLossGate(d)
	if _, sp := g.Admit(30, true); d.LossAt(sp.End) != Live || d.LossAt(1e6) != Live {
		t.Error("context still dead after the gate rebuilt it")
	}
}
