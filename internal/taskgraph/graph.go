// Package taskgraph is the dataflow task runtime the repository's workloads
// schedule onto: typed tasks (codelets with CPU and GPU cost variants) over
// explicit data handles with declared access modes, dependency inference from
// those declarations (StarPU's sequential-consistency rule), and a
// deterministic ready-queue scheduler that places every task on the compute
// element resource — GPU kernel queue or one of the CPU cores — where it is
// predicted to finish first, feeding measured rates back into a trust-blended
// database exactly the way the adaptive partitioner learns splits. Execution
// is virtual-time on the existing sim timelines, so the fault injector's
// health/stretch/throttle hooks and the telemetry bundle compose with graph
// execution unchanged.
package taskgraph

import (
	"fmt"
	"strconv"
)

// AccessMode declares how a task touches a handle.
type AccessMode uint8

const (
	// Read declares the task consumes the handle's current value.
	Read AccessMode = iota
	// Write declares the task overwrites the handle.
	Write
	// ReadWrite declares the task updates the handle in place.
	ReadWrite
)

func (m AccessMode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	}
	return "?"
}

// Handle names one piece of data tasks exchange: a matrix tile, a pivot
// vector, a stencil block. The runtime never stores the data itself — a
// handle is a footprint (its byte size governs transfer bookings) plus an
// identity for dependency inference and device residency. A *Handle is valid
// until its graph's next Reset.
type Handle struct {
	id    int
	name  string
	bytes int64

	// Owner and generation stamp: a handle of another graph, or of this one
	// before a Reset, is recognized instead of aliasing a live slot.
	g   *Graph
	gen uint32

	// Inference state: the last writer (-1 for none) and the readers since.
	lastWriter int
	readers    []int
}

// Bytes returns the handle's footprint.
func (h *Handle) Bytes() int64 { return h.bytes }

// Access pairs a handle with the declared mode.
type Access struct {
	H    *Handle
	Mode AccessMode
}

// Costs carries a codelet's per-device model durations. A nil entry means the
// codelet has no implementation for that device; at least one must be set.
// The functions belong to the codelet, not the task: they read what differs
// between tasks (Shape, Flops) from the task they are handed, so a builder
// makes one pair per codelet and every task of a loop shares it.
type Costs struct {
	// CPUSeconds returns t's model duration on one compute core.
	CPUSeconds func(t *Task) float64
	// GPUSeconds returns t's model duration on the GPU kernel queue
	// (transfers are booked separately from the handle footprints).
	GPUSeconds func(t *Task) float64
}

// Hybrid is the optional third implementation of a codelet: a body that
// splits the task's row extent across the GPU and the host cores by the
// adaptive GSplit, exactly the way the monolithic hybrid runner slab-splits a
// trailing update (level 1 GPU/CPU split, level 2 per-core split). The
// scheduler treats it as a placement candidate alongside the whole-CPU and
// whole-GPU bodies and books both halves: the device gets round(Rows*Split())
// rows, the host cores share the rest. Data semantics follow the row split —
// read handles are needed whole on both sides, written handles are split, the
// device's rows streaming back at the join so the host copy stays
// authoritative. The real host body (Task.Run) is unchanged: like every
// placement, a hybrid booking is a timing decision, so factors stay
// bit-identical whichever variant wins.
type Hybrid struct {
	// Rows is the splittable extent — the written tile's row count. Must be
	// positive.
	Rows int
	// Split returns the current GPU fraction from the split oracle
	// (adaptive database_g, keyed by this task's work bucket). Fractions
	// that round to 0 or Rows rows degrade the candidate to the pure CPU or
	// GPU body.
	Split func() float64
	// GPUSeconds models the kernel duration of a rows-high device half.
	GPUSeconds func(rows int) float64
	// CPUSeconds models the duration of a rows-high slab on one host core.
	CPUSeconds func(rows int) float64
	// CSplits returns the per-core share vector for the host half (adaptive
	// database_c); nil means equal shares across the element's cores.
	CSplits func() []float64
	// SplitReads declares the task's read handles row-local: the device half
	// needs only its row share of each read, not the whole handle. GEMM-class
	// codelets leave it false (the k-panels are needed whole on both sides);
	// stencil-class operators whose reads divide with the written rows set it
	// so the device half's upload scales with its share. Row shares are
	// transient occupancy — partial copies are never registered resident.
	SplitReads bool
	// FillSkew lets the scheduler top the host share up with the rows the
	// cores can absorb before the device half's projected join: core slabs
	// start the moment their data is ready, while the kernel waits behind the
	// queue and the upload gate, so a duration-balanced split would leave the
	// cores idle at the join. The monolithic pipeline's chunk overlap hides
	// the same skew; graph tasks opt in because the refinement moves rows
	// away from the oracle's split.
	FillSkew bool
	// Observe feeds the measured halves back to the split oracle after the
	// join: gsplit is the row fraction actually placed on the device, tg
	// and tc the per-side intrinsic durations (device half compute- or
	// stream-bound, tc the slowest core slab scaled by the fraction of
	// cores that participated, so the oracle's P_C always describes the
	// whole element's CPU capacity). coreWorks and coreTimes
	// carry the level-2 feedback — the flops assigned to and time taken by
	// each host core, zero for cores that sat the split out — so the
	// adaptive database_c can rebalance the host shares. nil disables
	// feedback.
	Observe func(gsplit, tg, tc float64, coreWorks, coreTimes []float64)
}

// Task is one node of the graph. Builders fill the exported fields of a Task
// value and hand it to Graph.Add, which stores a copy the graph owns; the
// returned *Task is valid until the graph's next Reset.
type Task struct {
	// Name labels the task in traces; unique within a graph.
	Name string
	// Codelet is the task's class name: it keys the measured-rate database,
	// so every task of one codelet shares the learned CPU and GPU rates.
	Codelet string
	// Flops is the work estimate the rate feedback divides by.
	Flops float64
	// Shape carries (m, n, k) for tasks that are ABFT-verifiable: the
	// checksum verification cost and the SDC strike geometry both need the
	// dimensions. A zero shape opts the task out of verification.
	Shape [3]int
	// Priority orders the ready queue: higher-priority tasks are placed
	// first. Builders use it to pull critical-path work (panel
	// factorizations) ahead of bulk updates.
	Priority int
	// Costs are the per-device model durations.
	Costs Costs
	// Hybrid, when non-nil, adds the split CPU+GPU implementation as a third
	// placement candidate. Hybrid tasks must declare both single-device
	// costs: the CPU body is the lost-GPU degradation path, the GPU body the
	// degenerate split.
	Hybrid *Hybrid
	// Run is the optional real-arithmetic host body. Bodies of concurrent
	// tasks must write only their declared Write/ReadWrite handles' data, so
	// parallel execution stays bit-identical to serial.
	Run func()
	// Accesses is the data footprint dependencies were inferred from: the
	// graph's own copy of the accesses passed to Add, which sets it.
	Accesses []Access

	id   int
	gen  uint32
	deps []int
}

// ID returns the task's creation index within its graph.
func (t *Task) ID() int { return t.id }

// Deps returns the IDs of the tasks this task waits on.
func (t *Task) Deps() []int { return t.deps }

// Graph is a DAG of tasks over handles, built append-only: dependency
// inference and explicit After edges only ever point at already-added tasks,
// so a graph is acyclic by construction. The graph owns its memory — tasks,
// handles, access lists and dependency lists live in slabs — and Reset
// empties it for the next build without giving any of it back.
type Graph struct {
	tasks    []*Task // by task id, into taskSlab
	nHandles int

	taskSlab   slab[Task]
	handleSlab slab[Handle]
	accSlab    slab[Access]
	depSlab    slab[int]

	// gen stamps every handle and task created since the last Reset; it
	// starts at 1 so a zero Task or Handle belongs to no graph.
	gen uint32
	// depMark, indexed by task id, holds the epoch of the Add or After call
	// that last saw the task as a dependency: it keeps t.deps duplicate-free
	// without a set per call.
	depMark []int
	epoch   int
}

// New returns an empty graph.
func New() *Graph { return &Graph{gen: 1} }

// Reset empties the graph for another build, keeping every slab, index and
// per-handle reader list as capacity. Every *Task and *Handle obtained before
// is invalid from here on: Add, After and Validate reject them by name.
func (g *Graph) Reset() {
	g.tasks, g.depMark = g.tasks[:0], g.depMark[:0]
	g.nHandles, g.epoch = 0, 0
	g.taskSlab.reset()
	g.handleSlab.reset()
	g.accSlab.reset()
	g.depSlab.reset()
	g.gen++
}

// NewHandle registers a data handle of the given footprint.
func (g *Graph) NewHandle(name string, bytes int64) *Handle {
	if bytes < 0 {
		panic(fmt.Sprintf("taskgraph: negative handle size %d for %q", bytes, name))
	}
	h := g.handleSlab.alloc()
	*h = Handle{id: g.nHandles, name: name, bytes: bytes, g: g, gen: g.gen,
		lastWriter: -1, readers: h.readers[:0]}
	g.nHandles++
	return h
}

// Tasks returns the tasks in creation order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Add inserts a copy of t declaring the given accesses, infers its
// dependencies from them (readers wait on the last writer; writers wait on
// the last writer and every reader since — the RAW/WAR/WAW rule), and returns
// the graph's task. The accesses are a parameter of their own, not a field of
// t, so a caller's literal list stays on its stack: Add only copies it. Tasks
// with no device variant at all panic: they could never run.
func (g *Graph) Add(task Task, accs ...Access) *Task {
	if task.Costs.CPUSeconds == nil && task.Costs.GPUSeconds == nil {
		panic(fmt.Sprintf("taskgraph: task %q has no device variant", task.Name))
	}
	if h := task.Hybrid; h != nil {
		if task.Costs.CPUSeconds == nil || task.Costs.GPUSeconds == nil {
			panic(fmt.Sprintf("taskgraph: hybrid task %q must declare both single-device bodies", task.Name))
		}
		if h.Rows <= 0 || h.Split == nil || h.GPUSeconds == nil || h.CPUSeconds == nil {
			panic(fmt.Sprintf("taskgraph: hybrid task %q has an incomplete hybrid descriptor", task.Name))
		}
	}
	if task.Accesses != nil {
		panic(fmt.Sprintf("taskgraph: task %q sets Accesses itself — pass them to Add", task.Name))
	}
	t := g.taskSlab.alloc()
	*t = task
	t.id, t.gen, t.deps = len(g.tasks), g.gen, nil
	t.Accesses = g.accSlab.push(nil, accs...)
	g.epoch++
	for _, a := range t.Accesses {
		h := a.H
		if h == nil {
			panic(fmt.Sprintf("taskgraph: task %q declares a nil handle", t.Name))
		}
		if !g.owns(h) {
			continue // no inference state to trust; Validate reports it
		}
		switch a.Mode {
		case Read:
			g.dep(t, h.lastWriter)
			h.readers = append(h.readers, t.id)
		case Write, ReadWrite:
			g.dep(t, h.lastWriter)
			for _, r := range h.readers {
				g.dep(t, r)
			}
			h.lastWriter = t.id
			h.readers = h.readers[:0]
		default:
			panic(fmt.Sprintf("taskgraph: task %q declares unknown access mode %d", t.Name, a.Mode))
		}
	}
	g.tasks = append(g.tasks, t)
	g.depMark = append(g.depMark, 0)
	return t
}

// owns reports whether h was registered by this graph's NewHandle since its
// last Reset.
func (g *Graph) owns(h *Handle) bool { return h.g == g && h.gen == g.gen }

// has reports whether t was returned by this graph's Add since its last
// Reset. The bounds and generation checks come first: a task of another
// graph, or one from before a Reset, may carry any id.
func (g *Graph) has(t *Task) bool {
	return t.gen == g.gen && t.id < len(g.tasks) && g.tasks[t.id] == t
}

// dep records that t waits on the earlier task id, once per Add or After
// call's epoch; -1 (no writer yet) and t itself are not dependencies.
func (g *Graph) dep(t *Task, id int) {
	if id >= 0 && id != t.id && g.depMark[id] != g.epoch {
		g.depMark[id] = g.epoch
		t.deps = g.depSlab.push(t.deps, id)
	}
}

// After adds explicit dependencies beyond what access inference produced —
// look-ahead depth barriers use it. Dependencies must already be in the
// graph, which keeps the append-only acyclicity guarantee. The extended list
// grows in place when t was the last task added and moves to the dependency
// slab's tail otherwise.
func (g *Graph) After(t *Task, deps ...*Task) {
	if !g.has(t) {
		panic(fmt.Sprintf("taskgraph: After on task %q before Add", t.Name))
	}
	g.epoch++
	for _, d := range t.deps {
		g.depMark[d] = g.epoch
	}
	for _, d := range deps {
		if !g.has(d) {
			panic(fmt.Sprintf("taskgraph: dependency %q of %q not in this graph", d.Name, t.Name))
		}
		g.dep(t, d.id)
	}
}

// nameSet is the one string-keyed map of the package's hot files: the
// duplicate-task-name check, filled once per Validate.
type nameSet map[string]struct{}

// validation is the scratch of one Validate pass: the name set and, by handle
// id, 1 + the last task declaring the handle. A Scheduler keeps one and
// reuses it Run after Run.
type validation struct {
	names    nameSet
	declared []int
}

// Validate checks structural invariants: in-range acyclic dependencies,
// unique task names, and accesses that name each of the task's handles once
// and only live handles of this graph — residency is indexed by handle id, so
// a foreign or stale handle would alias one of this graph's. The append-only
// builder cannot produce a cycle, but the scheduler still refuses graphs that
// fail validation rather than deadlock.
func (g *Graph) Validate() error { return g.validate(&validation{}) }

func (g *Graph) validate(v *validation) error {
	if v.names == nil {
		v.names = make(nameSet, len(g.tasks))
	}
	clear(v.names)
	v.declared = resized(v.declared, g.nHandles)
	for i, t := range g.tasks {
		if t.id != i {
			return fmt.Errorf("taskgraph: task %q has id %d at position %d", t.Name, t.id, i)
		}
		if _, dup := v.names[t.Name]; dup {
			return fmt.Errorf("taskgraph: duplicate task name %q", t.Name)
		}
		v.names[t.Name] = struct{}{}
		for _, a := range t.Accesses {
			if !g.owns(a.H) {
				return fmt.Errorf("taskgraph: task %q declares handle %q, which is not registered in this graph", t.Name, a.H.name)
			}
			if v.declared[a.H.id] == i+1 {
				return fmt.Errorf("taskgraph: task %q declares handle %q twice", t.Name, a.H.name)
			}
			v.declared[a.H.id] = i + 1
		}
		for _, d := range t.deps {
			if d < 0 || d >= len(g.tasks) {
				return fmt.Errorf("taskgraph: task %q depends on out-of-range task %d", t.Name, d)
			}
			if d >= i {
				return fmt.Errorf("taskgraph: task %q depends on later task %d — cycle", t.Name, d)
			}
		}
	}
	return nil
}

// resized returns s with length n and every element zero, reusing its array
// when that is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Name formats a task or handle name: format with each %d replaced by the next
// index, byte for byte what fmt.Sprintf prints for it, built in a stack buffer
// so that a name costs one allocation, the string itself — the whole-
// factorisation graph names 1,482 handles and 19,019 tasks at the paper's
// size. %d is the only verb, and the indices must match its count.
func Name(format string, idx ...int) string {
	var buf [48]byte
	b, verbs := buf[:0], 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 == len(format) || format[i+1] != 'd' {
			b = append(b, format[i])
			continue
		}
		if verbs < len(idx) {
			b = strconv.AppendInt(b, int64(idx[verbs]), 10)
		}
		verbs++
		i++
	}
	if verbs != len(idx) {
		panic(fmt.Sprintf("taskgraph: Name(%q) given %d indices", format, len(idx)))
	}
	return string(b)
}
