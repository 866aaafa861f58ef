package telemetry

import "tianhe/internal/sim"

// AttachTimelines hooks the tracer into the timelines' booking path: every
// span booked from now on is recorded as a trace event under the timeline's
// name. Timelines keep no spans themselves, so the tracer is the record that
// charts, digests and trace exports read. prefix disambiguates tracks when
// several resource sets share one tracer (e.g.
// "ACMLG+both.N46080/gpu.queue"); empty keeps the bare timeline names. A
// nil bundle or tracer attaches nothing.
func AttachTimelines(tel *Telemetry, cat, prefix string, tls ...*sim.Timeline) {
	if tel == nil || tel.Trace == nil {
		return
	}
	tr := tel.Trace
	for _, tl := range tls {
		track := prefix + tl.Name()
		tl.SetObserver(func(s sim.Span) {
			tr.Span(track, cat, s.Label, s.Start, s.End)
		})
	}
}
