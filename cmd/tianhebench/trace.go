package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"tianhe/internal/telemetry"
)

// span is one timed interval of the traced run: a workload, one of its
// passes, or one public call made inside a pass. Times are host seconds
// since the recorder was created.
type span struct {
	Name       string
	Start, End float64
	Parent     int // index of the enclosing span, -1 for a root
	Pass       int // pass id shared by every span of one pass, -1 outside passes
}

// recorder keeps the traced run's spans and counts in memory. The harness
// owns it and records from outside the program under test: around calls into
// public functions and inside the seams those functions already expose. A nil
// recorder is the untraced run — every method is a no-op — so workloads are
// written once.
type recorder struct {
	epoch  time.Time
	spans  []span
	open   []int
	pass   int
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: now(), pass: -1, counts: map[string]int64{}}
}

func noop() {}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return noop
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Pass: r.pass, Start: since(r.epoch)})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = since(r.epoch)
		r.open = r.open[:len(r.open)-1]
	}
}

// beginPass opens the span of pass id; spans opened until it closes carry
// the id.
func (r *recorder) beginPass(id int) func() {
	if r == nil {
		return noop
	}
	r.pass = id
	end := r.begin("pass")
	return func() {
		end()
		r.pass = -1
	}
}

// count adds n to a named count, recorded at the same boundary as the span
// it belongs to.
func (r *recorder) count(name string, n int64) {
	if r != nil {
		r.counts[name] += n
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may nest further (their own
// children are their business) and may overlap each other; overlapping
// stretches are counted once.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name           string
	Calls          int
	Total, Self    float64   // seconds over all calls
	Durations      []float64 // seconds per call
	SharePassTotal float64   // Self as a share of all pass time
}

// layer is the module a span name belongs to: the text before the first dot.
func (s spanStat) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanStats groups spans by name, first use first.
func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanStat
	passTotal := 0.0
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanStat{Name: s.Name})
		}
		d := s.End - s.Start
		out[j].Calls++
		out[j].Total += d
		out[j].Self += self[i]
		out[j].Durations = append(out[j].Durations, d)
		if s.Name == "pass" {
			passTotal += d
		}
	}
	for j := range out {
		if passTotal > 0 {
			out[j].SharePassTotal = out[j].Self / passTotal
		}
	}
	return out
}

// selfSumError is the largest relative gap, over passes, between a pass
// span's duration and the summed self times of the spans under it. Nested
// recording makes it zero up to rounding; the traced run asserts it.
func selfSumError(spans []span) float64 {
	self := selfTimes(spans)
	sum := map[int]float64{}
	dur := map[int]float64{}
	for i, s := range spans {
		if s.Pass < 0 {
			continue
		}
		sum[s.Pass] += self[i]
		if s.Name == "pass" {
			dur[s.Pass] = s.End - s.Start
		}
	}
	worst := 0.0
	for id, d := range dur {
		if d > 0 {
			if e := math.Abs(sum[id]-d) / d; e > worst {
				worst = e
			}
		}
	}
	return worst
}

// writeChromeTrace exports the spans of every traced workload as Chrome
// trace-event JSON through the repository's tracer: one track per workload,
// the pass id as the event category, nesting implied by containment.
func writeChromeTrace(w io.Writer, runs []*workloadRun) error {
	tr := telemetry.NewTracer()
	for _, run := range runs {
		for _, s := range run.spans {
			cat := "harness"
			if s.Pass >= 0 {
				cat = fmt.Sprintf("pass%d", s.Pass)
			}
			tr.Span(run.Workload, cat, s.Name, s.Start, s.End)
		}
	}
	return tr.WriteJSON(w)
}
