// pipeline_anatomy dissects the Section V software pipeline: it runs the
// same large DGEMM under the four technique combinations and renders the
// DMA-engine/kernel-queue schedules as ASCII Gantt charts, making visible
// exactly what each mechanism hides — operand reuse shrinks the DMA bars,
// the CT/NT overlap slides them under the kernels, and the blocked EO stage
// streams the output during execution.
package main

import (
	"fmt"

	"tianhe/internal/gpu"
	"tianhe/internal/pipeline"
	"tianhe/internal/telemetry"
	"tianhe/internal/trace"
)

func main() {
	const m, n, k = 16384, 16384, 4096 // four tasks: a real pipeline
	configs := []struct {
		name string
		opts pipeline.Options
	}{
		{"baseline (input -> execute -> output)", pipeline.Options{}},
		{"+ bounce corner turn (operand reuse)", pipeline.Options{Reuse: true}},
		{"+ CT/NT input overlap", pipeline.Options{Reuse: true, OverlapInput: true}},
		{"+ blocked EO output streaming (full Section V)", pipeline.Pipelined()},
	}
	var baseline float64
	for i, cfg := range configs {
		dev := gpu.New(gpu.Config{Virtual: true})
		tel := telemetry.New()
		telemetry.AttachTimelines(tel, "resource", "", dev.DMA, dev.Queue)
		exec := pipeline.NewExecutor(dev, cfg.opts)
		rep := exec.ExecuteVirtual(m, n, k, 1, 0)
		if i == 0 {
			baseline = rep.Seconds()
		}
		fmt.Printf("%s\n", cfg.name)
		fmt.Print(trace.Gantt{Width: 84}.RenderEvents([]string{dev.DMA.Name(), dev.Queue.Name()}, tel.Trace.Events()))
		fmt.Print(trace.Utilization(dev.DMA, dev.Queue))
		fmt.Printf("  %.3f s, %.1f GFLOPS (%.1f%% of baseline time), %.2f GB transferred in, %.2f GB reused\n\n",
			rep.Seconds(), rep.GFLOPS(), rep.Seconds()/baseline*100,
			float64(rep.BytesIn)/1e9, float64(rep.BytesSkipped)/1e9)
	}
	fmt.Println("Reading the charts: 'u'/'d' bars are up/down transfers on the DMA engine,")
	fmt.Println("'g' bars are DGEMM kernels. The pipeline is done when the kernel lane has")
	fmt.Println("no gaps — compare the queue utilization percentages across the variants.")
}
