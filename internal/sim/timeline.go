package sim

import (
	"fmt"
	"sync"
)

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
type Timeline struct {
	mu    sync.Mutex
	name  string
	avail Time
	busy  Time
	// spans holds the nSpans recorded spans in booking order, in chunks: the
	// first grows like any slice up to spanGrow, so a timeline with a handful
	// of bookings costs what it always did, and every later one is made
	// spanChunk long — a long recording allocates what it retains instead of
	// doubling and copying its whole history.
	spans    [][]Span
	nSpans   int
	record   bool
	observer func(Span)
	stretch  func(label string, start, duration Time) Time
}

// spanGrow is where the first chunk of recorded spans stops growing (16 KB of
// them) and spanChunk the length of every chunk after it (64 KB).
const (
	spanGrow  = 512
	spanChunk = 2048
)

// NewTimeline returns an empty resource timeline available at time 0.
func NewTimeline(name string) *Timeline {
	return &Timeline{name: name, record: true}
}

// Name returns the resource name the timeline was created with.
func (t *Timeline) Name() string { return t.name }

// SetRecording controls whether spans are retained. Large-scale simulations
// disable recording to bound memory.
func (t *Timeline) SetRecording(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record = on
}

// SetObserver installs a callback invoked after every booking with the span
// it occupied, independent of span retention — the telemetry tracer hooks
// timelines this way so even retention-free large-scale runs stream their
// schedule. A nil observer detaches. The callback runs outside the
// timeline's lock and must not book on the same timeline.
func (t *Timeline) SetObserver(obs func(Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observer = obs
}

// SetStretch installs a duration hook consulted on every booking: given the
// operation's label, resolved start time and model duration, it returns the
// duration actually booked. Fault injection uses this to model stall spans
// (ECC scrubs, SMI storms) that freeze a resource mid-operation. The hook
// may only lengthen an operation — returning less than the model duration
// panics, because a "fault" that speeds hardware up is always a bug in the
// scenario. A nil hook (the default) books model durations unchanged and
// costs one nil check. The hook runs under the timeline's lock and must not
// book on any timeline.
func (t *Timeline) SetStretch(hook func(label string, start, duration Time) Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stretch = hook
}

// Available returns the earliest time a new operation could start.
func (t *Timeline) Available() Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.avail
}

// Book schedules an operation of the given duration that may not start
// before earliest, returning the span it occupies. A negative duration
// panics: durations come from rate models and must be non-negative.
func (t *Timeline) Book(label string, earliest Time, duration Time) Span {
	if duration < 0 {
		panic(fmt.Sprintf("sim: negative duration %v for %q", duration, label))
	}
	t.mu.Lock()
	start := t.avail
	if earliest > start {
		start = earliest
	}
	if t.stretch != nil {
		stretched := t.stretch(label, start, duration)
		if stretched < duration {
			t.mu.Unlock()
			panic(fmt.Sprintf("sim: stretch hook shortened %q from %v to %v", label, duration, stretched))
		}
		duration = stretched
	}
	sp := Span{Label: label, Start: start, End: start + duration}
	t.avail = sp.End
	t.busy += duration
	if t.record {
		last := len(t.spans) - 1
		if last < 0 {
			t.spans, last = append(t.spans, nil), 0
		} else if c := t.spans[last]; len(c) == cap(c) && len(c) >= spanGrow {
			t.spans, last = append(t.spans, make([]Span, 0, spanChunk)), last+1
		}
		t.spans[last] = append(t.spans[last], sp)
		t.nSpans++
	}
	obs := t.observer
	t.mu.Unlock()
	if obs != nil {
		obs(sp)
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
	t.mu.Lock()
	defer t.mu.Unlock()
	if tm > t.avail {
		t.avail = tm
	}
}

// Spans returns a copy of the recorded spans in booking order.
func (t *Timeline) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.nSpans)
	for _, chunk := range t.spans {
		out = append(out, chunk...)
	}
	return out
}

// Busy returns the total booked time (sum of span durations). The
// accumulator is maintained on every booking, so it stays correct when span
// retention is off.
func (t *Timeline) Busy() Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy
}

// Reset clears the timeline back to time zero, dropping recorded spans.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.avail = 0
	t.busy = 0
	t.spans, t.nSpans = nil, 0
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
