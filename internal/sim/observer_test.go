package sim_test

import (
	"testing"

	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
	"tianhe/internal/telemetry"
)

// TestTimelineBookAllocFreeAndTraced: a timeline keeps no spans, so booking
// on one with no observer allocates nothing however long the run; the
// observer is the one record of the schedule, and a tracer attached to it
// captures every booking exactly as Book returned it, in booking order.
func TestTimelineBookAllocFreeAndTraced(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const bookings = 100_000
	tl := sim.NewTimeline("gpu.queue")
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < bookings; i++ {
			tl.Book("gemm", 0, 1e-3)
		}
	}); allocs != 0 {
		t.Errorf("%d bookings with no observer allocated %v times, want 0", bookings, allocs)
	}

	tel := telemetry.New()
	telemetry.AttachTimelines(tel, "resource", "w0/", tl)
	rng := sim.NewRNG(7)
	var booked []sim.Span
	for i := 0; i < 1000; i++ {
		label := [...]string{"up", "gemm", "down"}[i%3]
		booked = append(booked, tl.Book(label, tl.Available()+rng.Float64()-0.5, rng.Float64()))
	}
	events := tel.Trace.Events()
	if len(events) != len(booked) {
		t.Fatalf("tracer captured %d events for %d bookings", len(events), len(booked))
	}
	for i, e := range events {
		sp := booked[i]
		if e.Phase != telemetry.PhaseSpan || e.Track != "w0/gpu.queue" || e.Cat != "resource" ||
			e.Name != sp.Label || e.Start != sp.Start || e.End != sp.End {
			t.Fatalf("event %d = %+v, booked %v", i, e, sp)
		}
	}
}

// TestTimelineReadsLabels: a timeline's labels are read only by an observer
// or a stretch hook, and ReadsLabels says so while either is installed.
func TestTimelineReadsLabels(t *testing.T) {
	tl := sim.NewTimeline("cpu0")
	if tl.ReadsLabels() {
		t.Fatal("a bare timeline reads its labels")
	}
	tl.SetObserver(func(sim.Span) {})
	if !tl.ReadsLabels() {
		t.Error("a timeline with an observer does not read its labels")
	}
	tl.SetObserver(nil)
	tl.SetStretch(func(_ string, _, d sim.Time) sim.Time { return d })
	if !tl.ReadsLabels() {
		t.Error("a timeline with a stretch hook does not read its labels")
	}
	tl.SetStretch(nil)
	if tl.ReadsLabels() {
		t.Error("a timeline whose hooks were removed still reads its labels")
	}
}
