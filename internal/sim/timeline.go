package sim

import "fmt"

// Time is a virtual timestamp or duration in seconds. Using float64 seconds
// keeps rate arithmetic (bytes/bandwidth, flops/rate) exact enough for the
// microsecond-to-hours range this simulator spans.
type Time = float64

// Span records one operation booked on a Timeline, for tracing and tests.
type Span struct {
	Label string
	Start Time
	End   Time
}

// Duration returns the length of the span.
func (s Span) Duration() Time { return s.End - s.Start }

func (s Span) String() string {
	return fmt.Sprintf("%s [%.6f, %.6f]", s.Label, s.Start, s.End)
}

// Timeline models one serially-reusable resource (a GPU command queue, a DMA
// engine, one CPU core, a NIC). Operations book contiguous intervals; an
// operation cannot start before the resource is free nor before its
// dependencies have finished. Overlap between *different* timelines is what
// produces pipelining in this simulator.
//
// A Timeline is not safe for concurrent use: it is owned by one element (or
// one pipeline, one rank) and booked from that owner's goroutine only.
type Timeline struct {
	name     string
	avail    Time
	busy     Time
	observer func(Span)
	stretch  func(label string, start, duration Time) Time
}

// NewTimeline returns an empty resource timeline available at time 0.
func NewTimeline(name string) *Timeline {
	return &Timeline{name: name}
}

// Name returns the resource name the timeline was created with.
func (t *Timeline) Name() string { return t.name }

// SetObserver installs a callback invoked after every booking with the span
// it occupied. The timeline keeps no spans of its own: an observer — in
// practice the telemetry tracer, hooked in by telemetry.AttachTimelines — is
// the only record of what was booked, and it sees only bookings made after
// it is installed. A nil observer detaches. The callback runs once the
// booking is complete and must not book on the same timeline.
func (t *Timeline) SetObserver(obs func(Span)) {
	t.observer = obs
}

// ReadsLabels reports whether anything reads the labels of this timeline's
// bookings — an observer or a stretch hook — so a caller whose label costs
// an allocation can format it only then.
func (t *Timeline) ReadsLabels() bool { return t.observer != nil || t.stretch != nil }

// SetStretch installs a duration hook consulted on every booking: given the
// operation's label, resolved start time and model duration, it returns the
// duration actually booked. Fault injection uses this to model stall spans
// (ECC scrubs, SMI storms) that freeze a resource mid-operation. The hook
// may only lengthen an operation — returning less than the model duration
// panics, because a "fault" that speeds hardware up is always a bug in the
// scenario. A nil hook (the default) books model durations unchanged and
// costs one nil check. The hook runs in the middle of a booking and must not
// book on any timeline.
func (t *Timeline) SetStretch(hook func(label string, start, duration Time) Time) {
	t.stretch = hook
}

// Available returns the earliest time a new operation could start.
func (t *Timeline) Available() Time { return t.avail }

// Book schedules an operation of the given duration that may not start
// before earliest, returning the span it occupies. A negative duration
// panics: durations come from rate models and must be non-negative.
func (t *Timeline) Book(label string, earliest Time, duration Time) Span {
	if duration < 0 {
		panic(fmt.Sprintf("sim: negative duration %v for %q", duration, label))
	}
	start := t.avail
	if earliest > start {
		start = earliest
	}
	if t.stretch != nil {
		stretched := t.stretch(label, start, duration)
		if stretched < duration {
			panic(fmt.Sprintf("sim: stretch hook shortened %q from %v to %v", label, duration, stretched))
		}
		duration = stretched
	}
	sp := Span{Label: label, Start: start, End: start + duration}
	t.avail = sp.End
	t.busy += duration
	if t.observer != nil {
		t.observer(sp)
	}
	return sp
}

// BookAfter schedules an operation that depends on the given spans: it starts
// no earlier than the latest dependency end.
func (t *Timeline) BookAfter(label string, duration Time, deps ...Span) Span {
	earliest := Time(0)
	for _, d := range deps {
		if d.End > earliest {
			earliest = d.End
		}
	}
	return t.Book(label, earliest, duration)
}

// AdvanceTo moves the availability forward to at least tm (idle time).
func (t *Timeline) AdvanceTo(tm Time) {
	if tm > t.avail {
		t.avail = tm
	}
}

// Busy returns the total booked time (sum of span durations).
func (t *Timeline) Busy() Time { return t.busy }

// Reset clears the timeline back to time zero.
func (t *Timeline) Reset() {
	t.avail = 0
	t.busy = 0
}

// Latest returns the maximum availability across the given timelines: the
// virtual time at which all of them are done.
func Latest(ts ...*Timeline) Time {
	var m Time
	for _, t := range ts {
		if a := t.Available(); a > m {
			m = a
		}
	}
	return m
}
