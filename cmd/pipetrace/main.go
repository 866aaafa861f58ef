// Command pipetrace regenerates Table I of the paper: the CT/NT
// state-machine schedule of the software pipeline for a task queue, and
// optionally a virtual-time resource trace of an actual pipelined DGEMM —
// as an ASCII Gantt chart (-gantt) and/or a Chrome trace-event JSON file
// (-trace out.json, loadable in Perfetto) with the telemetry metric dump
// (-metrics).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tianhe/internal/gpu"
	"tianhe/internal/perfmodel"
	"tianhe/internal/pipeline"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
	"tianhe/internal/trace"
)

func main() {
	m := flag.Int("m", 16384, "DGEMM rows")
	n := flag.Int("n", 16384, "DGEMM columns")
	k := flag.Int("k", 8192, "DGEMM inner dimension")
	tile := flag.Int("tile", 0, "task tile extent (0 derives the largest tile that fits device memory)")
	gantt := flag.Bool("gantt", false, "also print the virtual-time ASCII resource trace")
	tracePath := flag.String("trace", "", "write the Table I CT/NT schedule and the resource trace as Chrome trace-event JSON to this file")
	metrics := flag.Bool("metrics", false, "print the telemetry metric dump after the run")
	par := flag.Int("par", 0, "worker count for the baseline/pipelined pair (<=0: GOMAXPROCS); output is identical for every value")
	flag.Parse()
	if err := checkShape(*m, *n, *k, *tile); err != nil {
		fmt.Fprintf(os.Stderr, "pipetrace: %v\n", err)
		os.Exit(1)
	}

	var tel *telemetry.Telemetry
	if *tracePath != "" || *metrics {
		tel = telemetry.New()
	}

	if *tile <= 0 {
		*tile = pipeline.ChooseTile(perfmodel.TextureLimit, perfmodel.GPULocalMemBytes, 512)
	}
	plan := pipeline.NewPlan(*m, *n, *k, *tile, true)
	names := pipeline.BounceOrderNames(plan)
	fmt.Printf("Task queue for %dx%dx%d with %d tiles (bounce corner turn): %v\n\n",
		*m, *n, *k, *tile, names)
	fmt.Println("Table I — the pipeline shifted in time:")
	fmt.Println()
	rows := pipeline.Schedule(names)
	fmt.Print(pipeline.FormatSchedule(rows))
	pipeline.TraceSchedule(tel.Tracer(), rows)

	if *gantt || tel.Enabled() {
		runTraces(*m, *n, *k, *tile, *gantt, tel, sweep.Workers(*par))
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipetrace: %v\n", err)
			os.Exit(1)
		}
		if err := tel.Trace.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipetrace: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s\n", tel.Trace.Len(), *tracePath)
	}
	if *metrics {
		fmt.Println()
		tel.Metrics.WriteText(os.Stdout)
	}
}

// checkShape rejects the flag values the planner or the executor cannot
// take: a degenerate DGEMM, or a tile wider than a device allocation may be.
// A tile within the limit whose working set still overflows device memory is
// the executor's to report.
func checkShape(m, n, k, tile int) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("-m, -n and -k must be positive, got %dx%dx%d", m, n, k)
	}
	if tile > perfmodel.TextureLimit {
		return fmt.Errorf("-tile %d exceeds the %d texture limit", tile, perfmodel.TextureLimit)
	}
	return nil
}

// runTraces executes the baseline and the full Section V pipeline on virtual
// devices, streaming bookings into the telemetry tracer and printing the
// ASCII charts when asked. The two executions are independent simulated
// devices; they run on par workers, and the charts print afterwards in the
// baseline-then-pipelined order of the serial tool.
func runTraces(m, n, k, tile int, gantt bool, tel *telemetry.Telemetry, par int) {
	type side struct {
		dev *gpu.Device
		rep pipeline.Report
	}
	sides := sweep.MapTel(context.Background(), par, tel, []bool{false, true},
		func(_ int, pipelined bool, tel *telemetry.Telemetry) side {
			dev := gpu.New(gpu.Config{Virtual: true})
			if !pipelined {
				telemetry.AttachTimelines(tel, "resource", "baseline/", dev.DMA, dev.Queue)
				rep := pipeline.NewExecutor(dev, pipeline.Options{Tile: tile, BlockRows: 2048}).
					ExecuteVirtual(m, n, k, 1, 0)
				return side{dev: dev, rep: rep}
			}
			telemetry.AttachTimelines(tel, "resource", "pipelined/", dev.DMA, dev.Queue)
			exec := pipeline.NewExecutor(dev, pipeline.Options{
				Reuse: true, OverlapInput: true, BlockedEO: true, Tile: tile, BlockRows: 2048,
				Telemetry: tel,
			})
			return side{dev: dev, rep: exec.ExecuteVirtual(m, n, k, 1, 0)}
		})
	if !gantt {
		return
	}
	base, piped := sides[0], sides[1]
	fmt.Println()
	fmt.Println("Virtual-time resource schedule, baseline (no pipelining):")
	fmt.Print(trace.Gantt{Width: 88}.Render(base.dev.DMA, base.dev.Queue))
	fmt.Print(trace.Utilization(base.dev.DMA, base.dev.Queue))

	fmt.Println()
	fmt.Println("Virtual-time resource schedule, full Section V pipeline:")
	fmt.Print(trace.Gantt{Width: 88}.Render(piped.dev.DMA, piped.dev.Queue))
	fmt.Print(trace.Utilization(piped.dev.DMA, piped.dev.Queue))
	rep := piped.rep
	fmt.Printf("\nend-to-end: %.3f s, %.1f GFLOPS (virtual), %.2f GB in, %.2f GB out, %.2f GB reused\n",
		rep.Seconds(), rep.GFLOPS(),
		float64(rep.BytesIn)/1e9, float64(rep.BytesOut)/1e9, float64(rep.BytesSkipped)/1e9)
}
