package taskgraph

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/sim"
)

// Span returns the recorded span of the named task; ok is false when the
// task was not scheduled (stalled run).
func (r Report) Span(name string) (TaskSpan, bool) {
	for _, ts := range r.TaskSpans {
		if ts.Name == name {
			return ts, true
		}
	}
	return TaskSpan{}, false
}

func testElement(seed uint64) *element.Element {
	return element.New(element.Config{Seed: seed, Virtual: true})
}

// chainGraph builds n sequential tasks over one handle, each preferring the
// GPU (cpuSec > gpuSec) unless flipped.
func chainGraph(n int, cpuSec, gpuSec float64) *Graph {
	g := New()
	h := g.NewHandle("h", 1<<20)
	for i := 0; i < n; i++ {
		g.Add(Task{
			Name:    fmt.Sprintf("t%02d", i),
			Codelet: both("step", cpuSec, gpuSec),
			Flops:   1e9,
		}, []Access{{h, ReadWrite}}...)
	}
	return g
}

func TestSchedulerDeterministic(t *testing.T) {
	run := func() Report {
		el := testElement(11)
		sch := NewScheduler(el, Options{})
		g := New()
		a := g.NewHandle("a", 4096)
		b := g.NewHandle("b", 4096)
		c := g.NewHandle("c", 4096)
		g.Add(Task{Name: "wa", Codelet: both("gen", 0.02, 0.01), Flops: 1e8}, []Access{{a, Write}}...)
		g.Add(Task{Name: "wb", Codelet: both("gen", 0.02, 0.01), Flops: 1e8}, []Access{{b, Write}}...)
		g.Add(Task{Name: "mul", Codelet: both("mul", 0.4, 0.05), Flops: 1e9}, []Access{{a, Read}, {b, Read}, {c, Write}}...)
		g.Add(Task{Name: "post", Codelet: cpuOnly("post", 0.01), Flops: 1e7}, []Access{{c, ReadWrite}}...)
		rep, err := sch.Run(g, 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.Tasks != 4 || len(r1.TaskSpans) != 4 {
		t.Errorf("tasks = %d spans = %d, want 4/4", r1.Tasks, len(r1.TaskSpans))
	}
}

func TestSchedulerPlacement(t *testing.T) {
	el := testElement(3)
	sch := NewScheduler(el, Options{})
	g := New()
	h := g.NewHandle("h", 1024)
	o := g.NewHandle("o", 1024)
	// Strongly GPU-favored task, then a CPU-only consumer.
	g.Add(Task{Name: "big", Codelet: both("big", 5, 0.05), Flops: 1e10}, []Access{{h, Write}}...)
	g.Add(Task{Name: "host", Codelet: cpuOnly("host", 0.001), Flops: 1e6}, []Access{{h, Read}, {o, Write}}...)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksGPU != 1 || rep.TasksCPU != 1 {
		t.Fatalf("placement split GPU=%d CPU=%d, want 1/1", rep.TasksGPU, rep.TasksCPU)
	}
	big, _ := rep.Span("big")
	if big.Device != "gpu" {
		t.Errorf("big placed on %s, want gpu", big.Device)
	}
	host, _ := rep.Span("host")
	if !strings.HasPrefix(host.Device, "cpu") {
		t.Errorf("host placed on %s, want a cpu core", host.Device)
	}
	// The CPU consumer of the GPU-written handle forced a download.
	if rep.BytesOut == 0 {
		t.Error("no download booked for the host reader of a device-dirty handle")
	}
	if host.Start < big.End {
		t.Errorf("host started at %v before its dependency finished at %v", host.Start, big.End)
	}
}

func TestSchedulerResidencySkipsRepeatUploads(t *testing.T) {
	el := testElement(5)
	sch := NewScheduler(el, Options{})
	g := New()
	shared := g.NewHandle("shared", 1<<20)
	outs := make([]*Handle, 3)
	g.Add(Task{Name: "init", Codelet: both("init", 2, 0.02), Flops: 1e9}, []Access{{shared, Write}}...)
	for i := range outs {
		outs[i] = g.NewHandle(fmt.Sprintf("out%d", i), 1024)
		g.Add(Task{Name: fmt.Sprintf("use%d", i), Codelet: both("use", 2, 0.02), Flops: 1e9}, []Access{{shared, Read}, {outs[i], Write}}...)
	}
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksGPU != 4 {
		t.Fatalf("TasksGPU = %d, want 4 (all tasks GPU-favored)", rep.TasksGPU)
	}
	// "shared" is written on-device, so every read hits residency.
	if want := int64(3 << 20); rep.BytesSkipped != want {
		t.Errorf("BytesSkipped = %d, want %d (three resident reads)", rep.BytesSkipped, want)
	}
}

func TestSchedulerTopologicalSafety(t *testing.T) {
	el := testElement(9)
	sch := NewScheduler(el, Options{})
	g := chainGraph(12, 0.02, 0.01)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	finish := map[string]float64{}
	for _, ts := range rep.TaskSpans {
		finish[ts.Name] = ts.End
	}
	for _, task := range g.Tasks() {
		ts, ok := rep.Span(task.Name)
		if !ok {
			t.Fatalf("task %q never scheduled", task.Name)
		}
		for _, d := range task.Deps() {
			if dep := g.Tasks()[d]; ts.Start < finish[dep.Name] {
				t.Errorf("%q started at %v before dependency %q finished at %v",
					task.Name, ts.Start, dep.Name, finish[dep.Name])
			}
		}
	}
}

func TestSchedulerStallsWithoutFallback(t *testing.T) {
	el := testElement(21)
	in, err := fault.NewScenario("lost-gpu", 20, 21)
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(in, el)
	sch := NewScheduler(el, Options{})
	g := chainGraph(20, 3, 1) // ~20s of GPU work crosses the loss at 7s
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Stalled {
		t.Fatal("fault-unaware scheduler did not stall on the dead context")
	}
	if len(rep.TaskSpans) == len(g.Tasks()) {
		t.Error("stalled run claims to have scheduled every task")
	}
}

func TestSchedulerFallbackAndRecovery(t *testing.T) {
	el := testElement(21)
	in, err := fault.NewScenario("lost-gpu", 20, 21) // loss window [7, 12)
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(in, el)
	sch := NewScheduler(el, Options{GPUFallback: true})
	g := chainGraph(20, 3, 1)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Stalled {
		t.Fatal("fault-aware scheduler stalled")
	}
	if len(rep.TaskSpans) != 20 {
		t.Fatalf("scheduled %d tasks, want 20", len(rep.TaskSpans))
	}
	if rep.TasksCPU == 0 {
		t.Error("no task fell back to the CPU during the outage")
	}
	if rep.TasksGPU == 0 {
		t.Error("no task ran on the GPU at all")
	}
	// Tasks placed after the restore should be back on the GPU.
	last := rep.TaskSpans[len(rep.TaskSpans)-1]
	if last.Device != "gpu" {
		t.Errorf("final task placed on %s, want gpu after recovery", last.Device)
	}
	// The outage quarantined and then re-warmed the affinity database.
	if sch.Rates().Quarantined() {
		t.Error("affinity database still quarantined after recovery")
	}
}

func TestSchedulerABFTCountsStrikes(t *testing.T) {
	el := testElement(33)
	in, err := fault.NewScenario("sdc-single", 10, 33)
	if err != nil {
		t.Fatal(err)
	}
	sch := NewScheduler(el, Options{Verify: true, SDC: in})
	g := New()
	h := g.NewHandle("h", 1<<20)
	for i := 0; i < 40; i++ {
		g.Add(Task{
			Name: fmt.Sprintf("k%02d", i), Codelet: gpuOnly("gemm", 0.2), Flops: 1e9,
			Shape: [3]int{512, 512, 512},
		}, []Access{{h, ReadWrite}}...)
	}
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.SDCDetected == 0 {
		t.Fatal("no strike detected under sdc-single across 40 verified tasks")
	}
	if rep.SDCDetected != rep.SDCCorrected+rep.SDCEscalated {
		t.Errorf("detected %d != corrected %d + escalated %d",
			rep.SDCDetected, rep.SDCCorrected, rep.SDCEscalated)
	}
	if rep.SDCCorrected != rep.RecomputedTasks {
		t.Errorf("corrected %d != recomputed %d (single-fault strikes recompute)",
			rep.SDCCorrected, rep.RecomputedTasks)
	}
	if rep.VerifySeconds <= 0 {
		t.Error("verification booked no time")
	}
	// Same seed, fresh scheduler: identical outcome (strikes keyed by task
	// sequence, not by time-of-day or map order).
	el2 := testElement(33)
	in2, _ := fault.NewScenario("sdc-single", 10, 33)
	sch2 := NewScheduler(el2, Options{Verify: true, SDC: in2})
	g2 := New()
	h2 := g2.NewHandle("h", 1<<20)
	for i := 0; i < 40; i++ {
		g2.Add(Task{
			Name: fmt.Sprintf("k%02d", i), Codelet: gpuOnly("gemm", 0.2), Flops: 1e9,
			Shape: [3]int{512, 512, 512},
		}, []Access{{h2, ReadWrite}}...)
	}
	rep2, err := sch2.Run(g2, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.SDCDetected != rep2.SDCDetected || rep.SDCEscalated != rep2.SDCEscalated {
		t.Errorf("strike outcomes not reproducible: %d/%d vs %d/%d",
			rep.SDCDetected, rep.SDCEscalated, rep2.SDCDetected, rep2.SDCEscalated)
	}
}

func TestSchedulerBodiesRunExactlyOnceAnyPar(t *testing.T) {
	for _, par := range []int{1, 8} {
		el := testElement(2)
		sch := NewScheduler(el, Options{Par: par})
		g := New()
		// A diamond: two independent middle tasks write disjoint slots.
		data := make([]int, 4)
		h0 := g.NewHandle("h0", 64)
		ha := g.NewHandle("ha", 64)
		hb := g.NewHandle("hb", 64)
		ho := g.NewHandle("ho", 64)
		g.Add(Task{Name: "src", Codelet: cpuOnly("", 0.01), Run: func() { data[0] = 1 }}, []Access{{h0, Write}}...)
		g.Add(Task{Name: "ma", Codelet: cpuOnly("", 0.01), Run: func() { data[1] = data[0] + 1 }}, []Access{{h0, Read}, {ha, Write}}...)
		g.Add(Task{Name: "mb", Codelet: cpuOnly("", 0.01), Run: func() { data[2] = data[0] + 2 }}, []Access{{h0, Read}, {hb, Write}}...)
		g.Add(Task{Name: "join", Codelet: cpuOnly("", 0.01), Run: func() { data[3] = data[1] * data[2] }}, []Access{{ha, Read}, {hb, Read}, {ho, Write}}...)
		if _, err := sch.Run(g, 0); err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		want := []int{1, 2, 3, 6}
		if !reflect.DeepEqual(data, want) {
			t.Errorf("par %d: data = %v, want %v", par, data, want)
		}
	}
}

func TestSchedulerFinalDrainFlushesDirtyHandles(t *testing.T) {
	el := testElement(4)
	sch := NewScheduler(el, Options{})
	g := New()
	h := g.NewHandle("h", 1<<20)
	g.Add(Task{Name: "only", Codelet: both("only", 3, 0.02), Flops: 1e9}, []Access{{h, Write}}...)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksGPU != 1 {
		t.Fatalf("task not placed on GPU")
	}
	if rep.BytesOut != 1<<20 {
		t.Errorf("BytesOut = %d, want the dirty handle drained (%d)", rep.BytesOut, 1<<20)
	}
	only, _ := rep.Span("only")
	if rep.End <= only.End {
		t.Errorf("End = %v not extended past the kernel end %v by the drain", rep.End, only.End)
	}
}

// TestWorkingSetOverflowIsATypedError drives the working-set guard: a task
// whose own reads cannot fit on the device even with everything else evicted
// makes Run return gpu.ErrWorkingSet — it used to panic — and an aborted
// placement teaches the rate database nothing.
func TestWorkingSetOverflowIsATypedError(t *testing.T) {
	const mem = int64(1 << 20)
	el := element.New(element.Config{Seed: 37, Virtual: true, GPUMem: mem})
	sch := NewScheduler(el, Options{})
	g := New()
	a := g.NewHandle("a", 600<<10)
	b := g.NewHandle("b", 600<<10)
	o := g.NewHandle("o", 64)
	// Both reads must be resident at once; together they exceed the device.
	g.Add(Task{Name: "big", Codelet: gpuOnly("k", 0.1), Flops: 1e9}, []Access{{a, Read}, {b, Read}, {o, Write}}...)
	_, err := sch.Run(g, 0)
	if !errors.Is(err, gpu.ErrWorkingSet) {
		t.Fatalf("Run error = %v, want ErrWorkingSet", err)
	}
	if want := fmt.Sprintf("gpu: working set of %d bytes exceeds device memory %d", b.Bytes(), mem); err.Error() != want {
		t.Errorf("message = %q, want %q", err, want)
	}
	if n := learnedCells(sch.Rates()); n != 0 {
		t.Errorf("aborted placement fed %d cells of the rate database", n)
	}
}

// TestReadyHeapPopsInPriorityOrder: whatever the interleaving of pushes and
// pops, the queue hands tasks out by (-priority, readyAt, id) — with ties at
// every level, as a wavefront of equal-priority tiles produces.
func TestReadyHeapPopsInPriorityOrder(t *testing.T) {
	rng := sim.NewRNG(5)
	for round := 0; round < 200; round++ {
		var h, pending readyHeap
		check := func() {
			t.Helper()
			best := 0
			for i := range pending {
				if pending.less(i, best) {
					best = i
				}
			}
			want := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			if got := h.pop(); got != want {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, want)
			}
		}
		for id, n := 0, 1+rng.Intn(60); id < n; id++ {
			it := readyItem{id: id, priority: rng.Intn(3), readyAt: sim.Time(rng.Intn(4))}
			h.push(it)
			pending = append(pending, it)
			if rng.Intn(3) == 0 {
				check()
			}
		}
		for len(pending) > 0 {
			check()
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d items left after the last pop", round, len(h))
		}
	}
}
