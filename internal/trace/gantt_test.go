package trace

import (
	"strings"
	"testing"

	"tianhe/internal/gpu"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// attach hooks a fresh tracer to the timelines and returns it with their
// track names in order: the lanes a chart of them draws.
func attach(tls ...*sim.Timeline) (*telemetry.Tracer, []string) {
	tel := telemetry.New()
	telemetry.AttachTimelines(tel, "resource", "", tls...)
	var tracks []string
	for _, tl := range tls {
		tracks = append(tracks, tl.Name())
	}
	return tel.Trace, tracks
}

func TestRenderBasic(t *testing.T) {
	a := sim.NewTimeline("dma")
	b := sim.NewTimeline("queue")
	tr, tracks := attach(a, b)
	a.Book("up", 0, 1)
	b.Book("gemm", 1, 2)
	out := Gantt{Width: 40}.RenderEvents(tracks, tr.Events())
	if !strings.Contains(out, "dma") || !strings.Contains(out, "queue") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 lanes + legend
		t.Fatalf("chart has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "U") && !strings.Contains(lines[1], "u") {
		t.Fatalf("upload bar missing:\n%s", out)
	}
	if !strings.Contains(lines[2], "g") && !strings.Contains(lines[2], "G") {
		t.Fatalf("kernel bar missing:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Gantt{}.RenderEvents([]string{"x"}, nil)
	if out != "(no spans)\n" {
		t.Fatalf("empty render: %q", out)
	}
}

func TestRenderOverlapVisible(t *testing.T) {
	// A kernel overlapping a transfer must paint in the same column range of
	// different lanes.
	dma := sim.NewTimeline("gpu.dma")
	q := sim.NewTimeline("gpu.queue")
	tr, tracks := attach(dma, q)
	dma.Book("up", 0, 10)
	q.Book("gemm", 0, 10)
	out := Gantt{Width: 20}.RenderEvents(tracks, tr.Events())
	lines := strings.Split(out, "\n")
	bar1 := lines[1][strings.Index(lines[1], "|")+1:]
	bar2 := lines[2][strings.Index(lines[2], "|")+1:]
	if strings.TrimSpace(bar1) == "" || strings.TrimSpace(bar2) == "" {
		t.Fatalf("bars missing:\n%s", out)
	}
}

func TestRenderPipelineExecution(t *testing.T) {
	// End to end: a pipelined virtual DGEMM must show DMA activity during
	// kernel execution (the whole point of Section V).
	dev := gpu.New(gpu.Config{Virtual: true})
	tr, tracks := attach(dev.DMA, dev.Queue)
	e := pipeline.NewExecutor(dev, pipeline.Pipelined())
	e.ExecuteVirtual(16384, 16384, 4096, 1, 0)
	out := Gantt{Width: 80}.RenderEvents(tracks, tr.Events())
	if !strings.Contains(out, "gpu.dma") || !strings.Contains(out, "gpu.queue") {
		t.Fatalf("device lanes missing:\n%s", out)
	}
}

func TestUtilization(t *testing.T) {
	a := sim.NewTimeline("dma")
	b := sim.NewTimeline("queue")
	a.Book("up", 0, 2)
	b.Book("gemm", 0, 8)
	out := Utilization(a, b)
	if !strings.Contains(out, "25.0%") || !strings.Contains(out, "100.0%") {
		t.Fatalf("utilization output:\n%s", out)
	}
}

func TestUtilizationIdle(t *testing.T) {
	if out := Utilization(sim.NewTimeline("x")); out != "(idle)\n" {
		t.Fatalf("idle output %q", out)
	}
}

func TestGlyphs(t *testing.T) {
	if glyphFor("up") != 'u' || glyphFor("down") != 'd' || glyphFor("gemm") != 'g' || glyphFor("misc") != '#' ||
		glyphFor("upd(0,1,1)") != '#' {
		t.Fatal("glyph mapping changed")
	}
}
