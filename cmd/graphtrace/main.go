// Command graphtrace schedules a workload's task graph on a virtual element
// and prints the resulting schedule: a per-device ASCII Gantt chart, an
// optional Chrome trace-event JSON export (-trace out.json, loadable in
// Perfetto), and a canonical task table (-golden) whose byte form is the CI
// golden for the dataflow scheduler — any placement or ordering drift shows
// up as a diff. Workloads: the graph-expressed LU factorization (-workload
// lu, virtual topology at any size) and the 3-D Jacobi stencil sweep
// (-workload stencil); -hybrid arms the split CPU+GPU codelet bodies on
// either. The monolithic-vs-graph comparison at N=46080 is the graphlu.*
// rows of the ledger cmd/figures writes (BENCH_paper.json, checked by `make
// paperbench`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/stencil"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "graphtrace: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("graphtrace", flag.ContinueOnError)
	workload := fs.String("workload", "lu", "graph to schedule: lu or stencil")
	seed := fs.Uint64("seed", 2009, "element seed (jitter and placement are deterministic in it)")
	golden := fs.Bool("golden", false, "print the canonical task table instead of the Gantt chart")
	hybrid := fs.Bool("hybrid", false, "arm the split CPU+GPU codelet bodies (GSplit-driven hybrid variants)")
	tracePath := fs.String("trace", "", "write the schedule as Chrome trace-event JSON to this file")
	width := fs.Int("width", 96, "Gantt chart width in characters")

	// LU flags.
	n := fs.Int("n", 2048, "lu: matrix order")
	nb := fs.Int("nb", 256, "lu: blocking factor")
	lookahead := fs.Int("lookahead", 1, "lu: look-ahead depth (negative: unconstrained dataflow)")

	// Stencil flags.
	nx := fs.Int("nx", 256, "stencil: grid X extent")
	ny := fs.Int("ny", 256, "stencil: grid Y extent")
	nz := fs.Int("nz", 256, "stencil: grid Z extent")
	steps := fs.Int("steps", 4, "stencil: Jacobi time steps")
	blockz := fs.Int("blockz", 32, "stencil: Z-slab depth")

	if err := fs.Parse(args); err != nil {
		return err
	}

	var tel *telemetry.Telemetry
	if *tracePath != "" {
		tel = telemetry.New()
	}
	el := element.New(element.Config{Seed: *seed, Virtual: true})
	if tel.Enabled() {
		el.Instrument(tel, *workload)
	}
	opts := taskgraph.Options{Telemetry: tel}

	var rep taskgraph.Report
	var title string
	suffix := ""
	if *hybrid {
		suffix = " hybrid"
	}
	switch *workload {
	case "lu":
		if *hybrid {
			// Cold-start priors so the first placements rank variants by the
			// perf model, matching GraphDgetrf's seeding.
			opts.RateSeeds = hpl.GraphRateSeeds(el, *nb)
		}
		g := hpl.BuildLUGraph(*n, nil, nil, el, nil,
			hpl.GraphOptions{NB: *nb, Lookahead: *lookahead, Hybrid: *hybrid})
		r, err := taskgraph.NewScheduler(el, opts).Run(g, 0)
		if err != nil {
			return err
		}
		rep = r
		title = fmt.Sprintf("lu n=%d nb=%d lookahead=%d%s", *n, *nb, *lookahead, suffix)
	case "stencil":
		s := stencil.NewVirtual(stencil.Config{
			NX: *nx, NY: *ny, NZ: *nz, Steps: *steps, BlockZ: *blockz, Seed: *seed,
			Hybrid: *hybrid,
		})
		r, err := s.Run(el, opts)
		if err != nil {
			return err
		}
		rep = r
		title = fmt.Sprintf("stencil %dx%dx%d steps=%d blockz=%d%s", *nx, *ny, *nz, *steps, *blockz, suffix)
	default:
		return fmt.Errorf("unknown workload %q (lu or stencil)", *workload)
	}
	if rep.Stalled {
		return fmt.Errorf("schedule stalled: GPU context lost without a fallback")
	}

	if *golden {
		writeGolden(w, title, rep)
	} else {
		writeSummary(w, title, rep)
		fmt.Fprintln(w)
		writeGantt(w, rep, *width)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tel.Trace.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %d trace events to %s\n", tel.Trace.Len(), *tracePath)
	}
	return nil
}

// writeGolden prints the canonical task table: one line per task in schedule
// order, fixed six-decimal virtual seconds. This byte form is the CI golden.
func writeGolden(w io.Writer, title string, rep taskgraph.Report) {
	fmt.Fprintf(w, "# graphtrace %s\n", title)
	fmt.Fprintf(w, "# tasks=%d gpu=%d cpu=%d hyb=%d makespan=%.6f\n",
		rep.Tasks, rep.TasksGPU, rep.TasksCPU, rep.TasksHyb, rep.Seconds())
	for _, ts := range rep.TaskSpans {
		fmt.Fprintf(w, "%s %s %s %.6f %.6f\n", ts.Name, ts.Codelet, ts.Device, ts.Start, ts.End)
	}
}

func writeSummary(w io.Writer, title string, rep taskgraph.Report) {
	fmt.Fprintf(w, "graphtrace %s\n", title)
	fmt.Fprintf(w, "  tasks    %d (%d gpu, %d cpu, %d hybrid)\n",
		rep.Tasks, rep.TasksGPU, rep.TasksCPU, rep.TasksHyb)
	fmt.Fprintf(w, "  makespan %.6f s virtual\n", rep.Seconds())
	fmt.Fprintf(w, "  rate     %.1f GFLOPS\n", rep.GFLOPS())
	fmt.Fprintf(w, "  traffic  %d B in, %d B out, %d B served from residency\n",
		rep.BytesIn, rep.BytesOut, rep.BytesSkipped)
}

// writeGantt renders one lane per device, tasks as bars over scaled virtual
// time. Overlapping bars on one lane merge; the lane's busy fraction follows.
func writeGantt(w io.Writer, rep taskgraph.Report, width int) {
	if len(rep.TaskSpans) == 0 || rep.Seconds() <= 0 {
		fmt.Fprintln(w, "(empty schedule)")
		return
	}
	if width < 20 {
		width = 20
	}
	lanes := map[string][]taskgraph.TaskSpan{}
	for _, ts := range rep.TaskSpans {
		lanes[ts.Device] = append(lanes[ts.Device], ts)
	}
	names := make([]string, 0, len(lanes))
	for d := range lanes {
		names = append(names, d)
	}
	sort.Strings(names)
	t0, t1 := float64(rep.Start), float64(rep.End)
	scale := float64(width) / (t1 - t0)
	fmt.Fprintf(w, "%-6s |%s| busy\n", "device", strings.Repeat("-", width))
	for _, d := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		busy := 0.0
		for _, ts := range lanes[d] {
			busy += float64(ts.End - ts.Start)
			lo := int((float64(ts.Start) - t0) * scale)
			hi := int((float64(ts.End) - t0) * scale)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(w, "%-6s |%s| %4.0f%%\n", d, row, 100*busy/(t1-t0))
	}
	fmt.Fprintf(w, "%-6s 0%ss=%.4f\n", "", strings.Repeat(" ", width-len(fmt.Sprintf("s=%.4f", t1-t0))), t1-t0)
}
