// Command graphtrace schedules a workload's task graph on a virtual element
// and prints the resulting schedule: a per-resource ASCII Gantt chart drawn
// from the telemetry tracer, with each resource's busy share; an optional
// Chrome trace-event JSON export (-trace out.json, loadable in Perfetto);
// and a canonical task table (-golden) whose byte form is the CI
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

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/stencil"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
	"tianhe/internal/trace"
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

	// The chart is drawn from the tracer, so chart mode always records one.
	var tel *telemetry.Telemetry
	if *tracePath != "" || !*golden {
		tel = telemetry.New()
	}
	el := element.New(element.Config{Seed: *seed, Virtual: true})
	el.Instrument(tel, *workload)
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
		var tracks []string
		for _, tl := range el.Timelines() {
			tracks = append(tracks, *workload+"/"+tl.Name())
		}
		fmt.Fprint(w, trace.Gantt{Width: *width}.RenderEvents(tracks, tel.Trace.Events()))
		fmt.Fprint(w, trace.Utilization(el.Timelines()...))
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
