package linpacksim

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/sim/simtest"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

// stepperDigest runs the graph stepper at the paper's single-element size and
// hashes everything it booked: every span of every resource timeline — a task
// by name on the queue or core that ran it, every upload, write-back and
// drain on the DMA engine — with exact start and end, then the transfer
// volumes the scheduler reported.
func stepperDigest(lookahead int) (uint64, int) {
	tel := telemetry.New()
	s := NewSim(Config{N: 46080, NB: 1216, Variant: element.ACMLGBoth, Seed: 2009,
		Graph: true, Lookahead: lookahead, Telemetry: tel})
	for _, tl := range s.Element().Timelines() {
		tl.SetRecording(true)
	}
	for !s.Done() {
		s.Step()
	}
	d := simtest.NewDigest()
	spans := 0
	for _, tl := range s.Element().Timelines() {
		spans += d.Timeline(tl)
	}
	for _, c := range []string{"taskgraph.bytes_in", "taskgraph.bytes_out", "taskgraph.bytes_skipped"} {
		d.U64(uint64(tel.Counter(c).Value()))
	}
	d.Float(s.Result().Seconds)
	return d.Sum64(), spans
}

// wholeGraphDigest schedules the 19,019-task whole-factorisation graph and
// hashes every TaskSpan and the report's transfer volumes.
func wholeGraphDigest(t *testing.T) (uint64, int) {
	el := element.New(element.Config{Seed: 2009, Virtual: true})
	g := hpl.BuildLUGraph(46080, nil, nil, el, nil, hpl.GraphOptions{NB: 1216, Lookahead: 1})
	rep, err := taskgraph.NewScheduler(el, taskgraph.Options{}).Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := simtest.NewDigest()
	for _, ts := range rep.TaskSpans {
		d.Str(ts.Name)
		d.Str(ts.Device)
		d.Float(ts.Start)
		d.Float(ts.End)
	}
	d.U64(uint64(rep.BytesIn))
	d.U64(uint64(rep.BytesOut))
	d.U64(uint64(rep.BytesSkipped))
	d.Float(rep.End)
	return d.Sum64(), len(rep.TaskSpans)
}

// TestEvictingScheduleDigest pins, at exact equality, the three schedules in
// the repository that evict heavily: the tile-graph steppers at look-ahead 0
// and 1 (1,444 tiles of 11.8 MB against 1 GiB of device memory) and the
// whole-factorisation graph. The other schedule goldens fit in device memory
// and graphbench tolerates 10 %, so nothing else would catch a residency
// change that picks a different victim. The digests were recorded on the
// commit before residency became id-indexed; change them only together with a
// deliberate schedule change.
func TestEvictingScheduleDigest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func() (uint64, int)
		want  uint64
		spans int
	}{
		{"stepper-d0", func() (uint64, int) { return stepperDigest(0) }, 0x73ed1b46b4e1d6dc, 50476},
		{"stepper-d1", func() (uint64, int) { return stepperDigest(1) }, 0xaefba769dcc2d95f, 50713},
		{"whole-graph", func() (uint64, int) { return wholeGraphDigest(t) }, 0x5fc7ec44677733cb, 19019},
	} {
		got, spans := tc.run()
		if got != tc.want || spans != tc.spans {
			t.Errorf("%s: digest %#016x over %d spans, want %#016x over %d", tc.name, got, spans, tc.want, tc.spans)
		}
	}
}
