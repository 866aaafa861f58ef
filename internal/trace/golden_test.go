package trace

import (
	"os"
	"path/filepath"
	"testing"

	"tianhe/internal/gpu"
	"tianhe/internal/pipeline"
)

// TestGanttGoldenAfterTelemetryRebase guards the renderer rebase onto
// telemetry events: the chart and utilization summary for a pipelined
// virtual DGEMM must be byte-identical to the pre-rebase renderer's output
// (captured from the seed into testdata/pipeline_gantt.golden).
func TestGanttGoldenAfterTelemetryRebase(t *testing.T) {
	dev := gpu.New(gpu.Config{Virtual: true})
	tr, tracks := attach(dev.DMA, dev.Queue)
	exec := pipeline.NewExecutor(dev, pipeline.Options{
		Reuse: true, OverlapInput: true, BlockedEO: true, BlockRows: 2048,
	})
	exec.ExecuteVirtual(16384, 16384, 8192, 1, 0)
	got := Gantt{Width: 88}.RenderEvents(tracks, tr.Events())
	got += Utilization(dev.DMA, dev.Queue)

	want, err := os.ReadFile(filepath.Join("testdata", "pipeline_gantt.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("render drifted from the seed output\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
