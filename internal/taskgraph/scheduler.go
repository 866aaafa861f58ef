package taskgraph

import (
	"fmt"
	"sync"

	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/cpu"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Options configures a Scheduler.
type Options struct {
	// Telemetry receives the scheduler's probes; nil disables them.
	Telemetry *telemetry.Telemetry
	// Verify enables ABFT checksum verification of every GPU task that
	// declares a Shape, at its drain, exactly like the pipeline executor.
	Verify bool
	// SDC is the injector consulted for corruption strikes at each verified
	// drain (nil: verification runs, nothing strikes).
	SDC *fault.Injector
	// GPUFallback makes the scheduler resilient to device loss: tasks place
	// CPU-only while the hardware is gone (quarantining the affinity
	// database's GPU side), and recovery books the context re-init and
	// re-warms over adaptive.RewarmHalfLife observations. Without it a dead
	// context stalls the run, like every fault-unaware runtime.
	GPUFallback bool
	// RateSeeds plants perfmodel-derived rates into the affinity database's
	// empty cells before the first placement, so a cold run ranks variants
	// from the model instead of swinging on the first jittered measurements.
	// Cells already warmed (a shared or checkpoint-restored database) are
	// left alone.
	RateSeeds []RateSeed
	// Par is the host worker count Execute runs real task bodies on; <= 1
	// runs them serially in creation order. Placement and every booking are
	// serial regardless, so timing is byte-identical across Par values, and
	// bodies write disjoint declared handles, so data is too.
	Par int
}

// RateSeed is one cold-start prior for the affinity database: the model's
// predicted rate for a codelet's variant class.
type RateSeed struct {
	Codelet string
	Class   Class
	Rate    float64 // flops per second
}

// TaskSpan records one placed task for traces and goldens.
type TaskSpan struct {
	// Name and Codelet identify the task; Device is "gpu", "cpuN", or
	// "hyb(gCPUROWS)" for a hybrid placement showing the device row share.
	Name, Codelet, Device string
	// Start and End bound the task's execution booking (ABFT verification
	// and recompute extensions included in End).
	Start, End sim.Time
}

// Report summarizes one scheduled graph.
type Report struct {
	// Start and End bound the whole graph in virtual time (final dirty-handle
	// drain included).
	Start, End sim.Time
	// Tasks counts the graph's tasks; TasksGPU/TasksCPU/TasksHyb the
	// placement split across the three variant classes.
	Tasks, TasksGPU, TasksCPU, TasksHyb int
	// Flops is the summed task work.
	Flops float64
	// BytesIn/BytesOut are the booked transfer volumes; BytesSkipped counts
	// reads served from device residency.
	BytesIn, BytesOut, BytesSkipped int64
	// Tally holds the ABFT outcomes, as in the pipeline report; the checksum
	// time and the recompute bookings are included in End.
	abft.Tally
	// Stalled reports a fault-unaware scheduler hitting a dead GPU context:
	// nothing past that submission executed.
	Stalled bool
	// TaskSpans lists every task in schedule order. It is the Scheduler's
	// scratch, valid until that Scheduler's next Run: a caller that keeps
	// the spans of several Runs copies them.
	TaskSpans []TaskSpan
}

// Seconds returns the end-to-end virtual duration.
func (r Report) Seconds() float64 { return r.End - r.Start }

// GFLOPS returns the achieved rate.
func (r Report) GFLOPS() float64 {
	s := r.Seconds()
	if s <= 0 {
		return 0
	}
	return r.Flops / s / 1e9
}

// schedProbes holds the scheduler's metric handles, fetched once.
type schedProbes struct {
	tasks, tasksGPU, tasksCPU       *telemetry.Counter
	tasksHyb                        *telemetry.Counter
	flops                           *telemetry.Counter
	bytesIn, bytesOut, bytesSkipped *telemetry.Counter
	makespan                        *telemetry.Gauge
	tracer                          *telemetry.Tracer

	// abft publishes verified graphs' tallies; it registers on the first
	// one, so metric dumps of unverified runs stay byte-identical.
	abft abft.Probes
}

// instant marks a device-health transition on the fault track.
func (pr *schedProbes) instant(name string, at sim.Time) {
	if pr != nil {
		pr.tracer.Instant("taskgraph.fault", "fault", name, at)
	}
}

// flush adds one finished graph's totals to the metrics.
func (pr *schedProbes) flush(rep *Report, verified bool) {
	if pr == nil {
		return
	}
	pr.tasks.Add(int64(rep.Tasks))
	pr.tasksGPU.Add(int64(rep.TasksGPU))
	pr.tasksCPU.Add(int64(rep.TasksCPU))
	pr.tasksHyb.Add(int64(rep.TasksHyb))
	pr.flops.Add(int64(rep.Flops))
	pr.bytesIn.Add(rep.BytesIn)
	pr.bytesOut.Add(rep.BytesOut)
	pr.bytesSkipped.Add(rep.BytesSkipped)
	pr.makespan.Set(rep.End - rep.Start)
	if verified {
		pr.abft.Publish(rep.Tally)
	}
}

func newSchedProbes(tel *telemetry.Telemetry) *schedProbes {
	if !tel.Enabled() {
		return nil
	}
	return &schedProbes{
		tasks:        tel.Counter("taskgraph.tasks"),
		tasksGPU:     tel.Counter("taskgraph.tasks_gpu"),
		tasksCPU:     tel.Counter("taskgraph.tasks_cpu"),
		tasksHyb:     tel.Counter("taskgraph.tasks_hyb"),
		flops:        tel.Counter("taskgraph.flops"),
		bytesIn:      tel.Counter("taskgraph.bytes_in"),
		bytesOut:     tel.Counter("taskgraph.bytes_out"),
		bytesSkipped: tel.Counter("taskgraph.bytes_skipped"),
		makespan:     tel.Gauge("taskgraph.makespan_seconds"),
		tracer:       tel.Trace,
		abft:         abft.NewProbes(tel, "taskgraph"),
	}
}

// Scheduler places graphs on one compute element. It persists across graphs:
// the affinity database, the SDC task counter, and the loss gate carry from
// one Run to the next, which is what lets the per-iteration LU graphs behave
// like one long adaptive run. The working memory of a Run lives here too, but
// only as capacity: every Run starts it from empty, so nothing but the three
// above ever flows from one graph into the next.
type Scheduler struct {
	el     *element.Element
	opts   Options
	rates  *RateDB
	probes *schedProbes

	gate    gpu.LossGate
	taskSeq int
	// hybLabels holds hybrid placements' TaskSpan labels by device rows.
	hybLabels map[int]string

	run run
}

// NewScheduler builds a scheduler over the element.
func NewScheduler(el *element.Element, opts Options) *Scheduler {
	rates := NewRateDB()
	for _, sd := range opts.RateSeeds {
		rates.Seed(sd.Codelet, sd.Class, sd.Rate)
	}
	s := &Scheduler{
		el:        el,
		opts:      opts,
		rates:     rates,
		probes:    newSchedProbes(opts.Telemetry),
		gate:      gpu.NewLossGate(el.GPU),
		hybLabels: map[int]string{},
	}
	s.run = s.emptyRun()
	return s
}

// emptyRun is the working state before the first Run: what is fixed by the
// element, and no scratch yet.
func (s *Scheduler) emptyRun() run {
	cores := s.el.CPU.Cores()
	n := len(cores)
	r := run{
		s: s, dev: s.el.GPU, cores: cores,
		coreNames: make([]string, n),
		window:    s.el.GPU.MemBytes() / 4,
		coreWorks: make([]float64, n), coreTimes: make([]float64, n),
		sizer: splitSizer{avail: make([]sim.Time, n), usable: make([]bool, n),
			fr: make([]float64, n), caps: make([]int, n), w: make([]float64, n)},
	}
	for i := range r.coreNames {
		r.coreNames[i] = fmt.Sprintf("cpu%d", i)
	}
	return r
}

// Rates returns the affinity database (for checkpointing and tests).
func (s *Scheduler) Rates() *RateDB { return s.rates }

// TaskSeq returns the global verified-task counter that keys the SDC
// injector's per-task decision streams.
func (s *Scheduler) TaskSeq() int { return s.taskSeq }

// SetTaskSeq restores the counter from a checkpoint.
func (s *Scheduler) SetTaskSeq(n int) { s.taskSeq = n }

// readyItem is one schedulable task in the priority queue.
type readyItem struct {
	id       int
	priority int
	readyAt  sim.Time
}

// readyHeap is a binary min-heap ordered by (-priority, readyAt, id):
// critical-path tasks first, then earliest-ready, with the creation index as
// the deterministic tie-breaker. The order is total, so the pop sequence does
// not depend on how the heap is laid out.
type readyHeap []readyItem

func (h readyHeap) less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	//lint:ignore floateq exact ready-time ties must fall through to the id tie-breaker for a total order
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].id < h[j].id
}

func (h *readyHeap) push(it readyItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *readyHeap) pop() readyItem {
	n := len(*h) - 1
	s := (*h)[:n]
	top := (*h)[0]
	if n > 0 {
		s[0] = (*h)[n]
	}
	*h = s
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return top
}

// childIndex lists, for every task, the tasks that wait on it, in creation
// order: one flat slice and the offset of each task's run in it (fill is the
// build's cursor per task).
type childIndex struct{ start, list, fill []int }

// build indexes tasks, reusing the slices of the last build.
func (c *childIndex) build(tasks []*Task) {
	n := len(tasks)
	start := resized(c.start, n+1)
	for _, t := range tasks {
		for _, d := range t.deps {
			start[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	list := resized(c.list, start[n])
	fill := append(c.fill[:0], start[:n]...)
	for _, t := range tasks {
		for _, d := range t.deps {
			list[fill[d]] = t.id
			fill[d]++
		}
	}
	c.start, c.list, c.fill = start, list, fill
}

func (c childIndex) of(id int) []int { return c.list[c.start[id]:c.start[id+1]] }

// run is the working state of one Scheduler.Run, shared by its parts: the
// residency manager owns device memory, the device plan and the cost step
// read it to predict, and the executor books through it. It lives in the
// Scheduler so its slices grow to the largest graph seen and are emptied, not
// re-made, per Run; nothing placement allocates is per task. The report's
// span list is kept here too, which is why Report.TaskSpans lives only until
// the next Run.
type run struct {
	s     *Scheduler
	dev   *gpu.Device
	cores []*cpu.Core
	// coreNames are the TaskSpan device labels of the cores.
	coreNames []string
	rep       Report
	res       gpu.Residency

	// Dependency bookkeeping, by task id, and the graph's validation scratch.
	val      validation
	indeg    []int
	finish   []sim.Time
	children childIndex
	ready    readyHeap
	// window is the double-buffered staging budget for oversized working
	// sets. A task whose written tiles cannot fit on the device streams them
	// through this window instead of making them resident, exactly like the
	// monolithic pipeline's bounded C windows: only the head window gates the
	// kernel launch, the rest of the traffic rides the DMA engine under the
	// kernel, and the kernel runs bandwidth-bound when the stream cannot keep
	// up.
	window int64
	cand   candidates // the cost step's answer for the task being placed
	sizer  splitSizer

	// coreWorks and coreTimes are a hybrid booking's level-2 feedback, by
	// core, lent to the oracle's Observe.
	coreWorks, coreTimes []float64

	deps   []sim.Span // kernel dependencies of the booking in flight
	lateUp []*Handle  // its fresh reads riding the in-stream under the kernel
	stale  []*Handle  // resident copies its host half overwrites
}

// newRun empties the working state for a Run of g, the report's span list
// included: it reuses the last Run's storage, so the spans a caller kept from
// that Run are overwritten.
func (s *Scheduler) newRun(g *Graph, earliest sim.Time) *run {
	r := &s.run
	spans := r.rep.TaskSpans[:0]
	if cap(spans) < g.Len() {
		spans = make([]TaskSpan, 0, g.Len())
	}
	r.rep = Report{Start: earliest, End: earliest, Tasks: g.Len(), TaskSpans: spans}
	r.res.Begin(r.dev, g.nHandles)
	r.indeg = resized(r.indeg, g.Len())
	r.finish = resized(r.finish, g.Len())
	r.children.build(g.tasks)
	r.ready = r.ready[:0]
	return r
}

// Run schedules and executes the graph, with no task starting before
// earliest. Placement is a serial deterministic list-scheduling loop; real
// host bodies then execute through Execute on Options.Par workers. A task
// whose own handles overflow device memory aborts the run with
// gpu.ErrWorkingSet.
func (s *Scheduler) Run(g *Graph, earliest sim.Time) (Report, error) {
	if err := g.validate(&s.run.val); err != nil {
		return Report{}, err
	}
	r := s.newRun(g, earliest)
	tasks := g.Tasks()
	indeg, finish, children, ready := r.indeg, r.finish, r.children, &r.ready
	for _, t := range tasks {
		indeg[t.id] = len(t.deps)
		if indeg[t.id] == 0 {
			ready.push(readyItem{id: t.id, priority: t.Priority, readyAt: earliest})
		}
	}

	for len(*ready) > 0 {
		it := ready.pop()
		t := tasks[it.id]
		r.rep.Flops += t.Flops

		readyAt, gpuOK, stalled := r.admit(t, it.readyAt)
		if stalled {
			return r.settle(), nil
		}
		c := &r.cand
		r.estimate(c, t, readyAt, gpuOK)
		b := r.book(t, c.choose(), c, readyAt)
		if err := r.res.Err(); err != nil {
			return Report{}, err
		}
		end := max(b.devEnd, b.hostEnd)
		if b.class != ClassCPU && s.opts.Verify && (t.Shape[0] > 0 || t.Shape[1] > 0) {
			end = r.verify(t, &b)
		}
		finish[t.id] = end
		r.rep.End = max(r.rep.End, end)
		r.rep.TaskSpans = append(r.rep.TaskSpans, TaskSpan{
			Name: t.Name, Codelet: t.Codelet.Name, Device: b.device, Start: b.sp.Start, End: end,
		})

		for _, c := range children.of(t.id) {
			indeg[c]--
			if indeg[c] == 0 {
				ra := earliest
				for _, d := range tasks[c].deps {
					ra = max(ra, finish[d])
				}
				ready.push(readyItem{id: c, priority: tasks[c].Priority, readyAt: ra})
			}
		}
	}

	r.res.Drain()
	r.settle()
	execute(tasks, children, s.opts.Par)
	s.probes.flush(&r.rep, s.opts.Verify)
	return r.rep, nil
}

// settle folds the manager's write-back traffic into the report; every
// return with a report calls it once.
func (r *run) settle() Report {
	out, end := r.res.WrittenBack()
	r.rep.BytesOut += out
	r.rep.End = max(r.rep.End, end)
	return r.rep
}

// admit passes t through the device's loss gate before its candidates are
// estimated and applies the scheduler's reaction: a fault-unaware scheduler
// stalls on a dead context; a fault-aware one places CPU-only during the
// outage (quarantining the affinity database's device rates and dropping the
// lost device memory when it begins) and, once the gate has rebuilt the
// context, starts from empty device memory and re-warms. A GPU-only task
// during an outage waits for the hardware to answer again: its readiness
// moves to the restore time, where the gate re-inits the context. It returns
// the task's ready time and whether its device variants are candidates.
func (r *run) admit(t *Task, readyAt sim.Time) (at sim.Time, gpuOK, stalled bool) {
	s, dev := r.s, r.dev
	gpuOK = t.Codelet.GPUSeconds != nil
	cpuOK := t.Codelet.CPUSeconds != nil
	if gpuOK {
		if !cpuOK && s.opts.GPUFallback && dev.LossAt(readyAt) == gpu.Outage {
			readyAt = dev.Health().RestoredAt(readyAt)
		}
		switch verdict, reinit := s.gate.Admit(readyAt, s.opts.GPUFallback); verdict {
		case gpu.Stalled:
			r.rep.Stalled = true
			s.probes.instant("gpu.stall", readyAt)
			return readyAt, false, true
		case gpu.Recovered:
			r.res.Reset()
			s.rates.Rewarm(adaptive.RewarmHalfLife)
			s.probes.instant("gpu.reinit", reinit.End)
		case gpu.FellBack:
			gpuOK = false
			s.rates.Quarantine()
			r.res.Reset()
			s.probes.instant("gpu.fallback", readyAt)
		case gpu.StillDown:
			gpuOK = false
		}
	}
	if !gpuOK && !cpuOK {
		panic(fmt.Sprintf("taskgraph: task %q has no runnable device variant", t.Name))
	}
	return readyAt, gpuOK, false
}

// Execute runs g's Run bodies in dependency order on workers goroutines, the
// caller's among them, with no placement. A freed worker takes the ready task
// of highest Priority, then the earliest created, from one heap under one
// mutex; workers <= 1 runs them in creation order. Bodies write only their
// declared handles, so every order gives the same data.
func Execute(g *Graph, workers int) {
	var children childIndex
	children.build(g.tasks)
	execute(g.tasks, children, workers)
}

func execute(tasks []*Task, children childIndex, workers int) {
	if workers <= 1 {
		for _, t := range tasks {
			if t.Run != nil {
				t.Run()
			}
		}
		return
	}
	var mu sync.Mutex
	wake := sync.NewCond(&mu)
	var ready readyHeap
	indeg, left := make([]int, len(tasks)), len(tasks)
	for _, t := range tasks {
		if indeg[t.id] = len(t.deps); len(t.deps) == 0 {
			ready.push(readyItem{id: t.id, priority: t.Priority})
		}
	}
	work := func() {
		mu.Lock()
		for left > 0 {
			if len(ready) == 0 {
				wake.Wait()
				continue
			}
			id := ready.pop().id
			mu.Unlock()
			if fn := tasks[id].Run; fn != nil {
				fn()
			}
			mu.Lock()
			for _, c := range children.of(id) {
				if indeg[c]--; indeg[c] == 0 {
					ready.push(readyItem{id: c, priority: tasks[c].Priority})
					wake.Signal()
				}
			}
			if left--; left == 0 {
				wake.Broadcast()
			}
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for range min(workers, len(tasks)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
