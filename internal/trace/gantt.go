// Package trace renders virtual-time resource schedules as ASCII Gantt
// charts, making the pipeline's overlap structure visible: one row per
// resource (DMA engine, kernel queue, CPU cores), time flowing rightward,
// each span drawn as a labelled bar. The pipetrace binary uses it to show
// how the CT/NT machinery hides transfers behind kernel execution.
//
// The renderer consumes telemetry events — the same stream the Chrome
// trace-event JSON export is built from, captured by attaching the
// timelines to a tracer — so there is a single schedule record with two
// renderers (ASCII here, JSON in telemetry).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Gantt renders a schedule into a fixed-width chart.
type Gantt struct {
	// Width is the number of character cells the time axis spans (default 96).
	Width int
	// MinDuration drops spans shorter than this fraction of the full range
	// from labelling (they still paint); default 0 keeps everything.
	MinDuration float64
}

// RenderEvents draws the chart for a telemetry event stream: one lane per
// track in the given order (a track without events keeps an empty lane).
// Events on other tracks and non-span events are ignored.
func (g Gantt) RenderEvents(tracks []string, events []telemetry.Event) string {
	width := g.Width
	if width <= 0 {
		width = 96
	}
	lanes := make(map[string][]telemetry.Event, len(tracks))
	for _, tr := range tracks {
		lanes[tr] = nil
	}
	var tMin, tMax float64
	first := true
	for _, e := range events {
		if _, ok := lanes[e.Track]; !ok || e.Phase != telemetry.PhaseSpan {
			continue
		}
		lanes[e.Track] = append(lanes[e.Track], e)
		if first || e.Start < tMin {
			tMin = e.Start
		}
		if first || e.End > tMax {
			tMax = e.End
		}
		first = false
	}
	//lint:ignore floateq degenerate-range sentinel: both bounds copy the same span endpoints
	if first || tMax == tMin {
		return "(no spans)\n"
	}
	scale := float64(width) / (tMax - tMin)
	cell := func(t float64) int {
		c := int((t - tMin) * scale)
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	nameW := 4
	for _, name := range tracks {
		if len(name) > nameW {
			nameW = len(name)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%*s |%s|\n", nameW, "time", axis(width, tMin, tMax))
	for _, name := range tracks {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		spans := lanes[name]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			c0, c1 := cell(s.Start), cell(s.End)
			if c1 <= c0 {
				c1 = c0 + 1
			}
			fill := glyphFor(s.Name)
			for c := c0; c < c1 && c < width; c++ {
				lane[c] = fill
			}
			// Place the label's first letter at the bar start when it fits.
			if g.MinDuration <= 0 || s.Duration() >= g.MinDuration*(tMax-tMin) {
				if c0 < width && len(s.Name) > 0 {
					lane[c0] = s.Name[0] &^ 0x20 // uppercase marker
				}
			}
		}
		fmt.Fprintf(&b, "%*s |%s|\n", nameW, name, lane)
	}
	fmt.Fprintf(&b, "%*s  legend: U=up-transfer  D=down-transfer  G=gemm kernel; lowercase fills continue the bar\n", nameW, "")
	return b.String()
}

// glyphFor picks the fill character of a span from its name: the DMA
// engine books transfers as exactly "up" and "down" (a task graph's
// "upd(...)" updates are not uploads).
func glyphFor(label string) byte {
	switch {
	case label == "up":
		return 'u'
	case label == "down":
		return 'd'
	case strings.HasPrefix(label, "gemm"):
		return 'g'
	}
	return '#'
}

// axis renders the header ruler with the time range.
func axis(width int, tMin, tMax float64) string {
	left := fmt.Sprintf("%.3fs", tMin)
	right := fmt.Sprintf("%.3fs", tMax)
	if len(left)+len(right)+2 >= width {
		return strings.Repeat("-", width)
	}
	return left + strings.Repeat("-", width-len(left)-len(right)) + right
}

// Utilization summarizes how busy each timeline was over the makespan.
func Utilization(timelines ...*sim.Timeline) string {
	var b strings.Builder
	end := sim.Latest(timelines...)
	if end == 0 {
		return "(idle)\n"
	}
	for _, tl := range timelines {
		busy := tl.Busy()
		fmt.Fprintf(&b, "%-12s busy %8.4f s of %8.4f s  (%5.1f%%)\n",
			tl.Name(), busy, end, busy/end*100)
	}
	return b.String()
}
