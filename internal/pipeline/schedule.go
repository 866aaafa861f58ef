package pipeline

import (
	"fmt"
	"strings"

	"tianhe/internal/telemetry"
)

// CTState enumerates the Current-Task controller states of Section V.C.
type CTState uint8

const (
	// CTIdle initializes the CT object when it takes a new task.
	CTIdle CTState = iota
	// CTInput is the prologue stage: the task's matrices are transferred.
	CTInput
	// CTEO is the fused Execute/Output stage (loop body and epilogue).
	CTEO
)

func (s CTState) String() string {
	switch s {
	case CTIdle:
		return "Idle"
	case CTInput:
		return "Input"
	case CTEO:
		return "EO"
	}
	return "?"
}

// NTState enumerates the Next-Task controller states.
type NTState uint8

const (
	// NTIdle initializes the NT object when it takes a new task.
	NTIdle NTState = iota
	// NTInput transfers the next task's matrices, overlapped with CT's EO.
	NTInput
)

func (s NTState) String() string {
	if s == NTInput {
		return "N-Input"
	}
	return "N-Idle"
}

// StepRow is one line of the pipeline schedule: which task each controller
// object holds and in which state, at one unit time step. Empty task names
// mean the controller holds nothing.
type StepRow struct {
	Time    int
	CTTask  string
	CTState CTState
	NTTask  string
	NTState NTState
}

// phases is what a driver carries out for the CT/NT controller; task numbers
// index the queue. Schedule's driver gives every phase one time step, the
// executor's books each on the device.
type phases interface {
	// adopt puts task ct under CT in IDLE and task nt (-1: the queue is
	// exhausted) under NT in N-IDLE.
	adopt(ct, nt int)
	// input transfers the task's matrices: under NT, hidden behind the EO
	// stage CT is in (N-INPUT), or else under CT itself (INPUT).
	input(task int, underEO bool)
	// launch moves CT into EO with the task: its kernels issue, its output
	// streams behind them.
	launch(task int)
	// retire ends the task's EO stage: its output is drained.
	retire(task int)
}

// control is the CT/NT controller pair of Section V.C walking a queue of n
// tasks — the one place that decides which phase happens in which order:
//
//   - CT always controls the first task in the queue, NT the second if any;
//     a newly adopted task sits one step in IDLE (N-IDLE).
//   - The first task passes through INPUT under CT (the pipeline prologue);
//     every later task's input already happened under NT, while CT was in EO,
//     so it enters EO directly after its IDLE step.
//   - A task retires only after its successor's input and kernels are issued:
//     the single transfer thread serves N-INPUT ahead of the bulk of the EO
//     downloads, and whatever a retiring task still needs from the command
//     queue (an ABFT recompute) queues behind its successor's kernels.
//   - Without overlap NT never inputs: every task runs INPUT, EO and its
//     drain under CT before the next is touched.
func control(n int, overlap bool, d phases) {
	for i := 0; i < n; i++ {
		nt := i + 1
		if nt == n {
			nt = -1
		}
		d.adopt(i, nt)
		if i == 0 || !overlap {
			d.input(i, false)
		}
		d.launch(i)
		if !overlap {
			d.retire(i)
			continue
		}
		if i > 0 {
			d.retire(i - 1)
		}
		if nt >= 0 {
			d.input(nt, true)
		}
	}
	if overlap && n > 0 {
		d.retire(n - 1)
	}
}

// unitSteps is the controller's unit-duration driver: every phase takes one
// time step and becomes one StepRow.
type unitSteps struct {
	tasks  []string
	rows   []StepRow
	ct, nt string // the tasks CT and NT hold
}

func (u *unitSteps) step(cs CTState) {
	u.rows = append(u.rows, StepRow{Time: len(u.rows), CTTask: u.ct, CTState: cs, NTTask: u.nt})
}

func (u *unitSteps) adopt(ct, nt int) {
	u.ct, u.nt = u.tasks[ct], ""
	if nt >= 0 {
		u.nt = u.tasks[nt]
	}
	u.step(CTIdle)
}

func (u *unitSteps) input(_ int, underEO bool) {
	if underEO {
		// N-INPUT shares CT's EO step rather than taking one of its own.
		u.rows[len(u.rows)-1].NTState = NTInput
		return
	}
	u.step(CTInput)
}

func (u *unitSteps) launch(int) { u.step(CTEO) }

func (u *unitSteps) retire(int) {}

// Schedule runs the CT/NT controller over a queue of task names with unit
// phase durations, reproducing Table I of the paper ("the pipeline shifted
// in time").
func Schedule(tasks []string) []StepRow {
	u := unitSteps{tasks: tasks}
	control(len(tasks), true, &u)
	return u.rows
}

// FormatSchedule renders rows in the layout of Table I: one column per
// (object, state) pair, task names placed in the active cell.
func FormatSchedule(rows []StepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s | %-5s %-6s %-4s | %-7s %-8s\n", "Time", "Idle", "Input", "EO", "N-Idle", "N-Input")
	for _, r := range rows {
		cells := map[string]string{}
		switch r.CTState {
		case CTIdle:
			cells["Idle"] = r.CTTask
		case CTInput:
			cells["Input"] = r.CTTask
		case CTEO:
			cells["EO"] = r.CTTask
		}
		if r.NTTask != "" {
			switch r.NTState {
			case NTIdle:
				cells["N-Idle"] = r.NTTask
			case NTInput:
				cells["N-Input"] = r.NTTask
			}
		}
		fmt.Fprintf(&b, "%-5d | %-5s %-6s %-4s | %-7s %-8s\n",
			r.Time, cells["Idle"], cells["Input"], cells["EO"], cells["N-Idle"], cells["N-Input"])
	}
	return b.String()
}

// TraceSchedule emits the CT/NT state machine's schedule as telemetry span
// events: tracks "CT" and "NT", one span per maximal run of consecutive unit
// steps in which an object holds the same task in the same state, the task
// name as the span name and the state as its category. Exporting the result
// with WriteJSON yields Table I as a Chrome trace-event file ("the pipeline
// shifted in time", viewable in Perfetto); timestamps are the unit-step
// virtual times.
func TraceSchedule(tr *telemetry.Tracer, rows []StepRow) {
	if tr == nil {
		return
	}
	type cell struct {
		task, state string
	}
	ct := func(r StepRow) cell { return cell{r.CTTask, r.CTState.String()} }
	nt := func(r StepRow) cell {
		if r.NTTask == "" {
			return cell{}
		}
		return cell{r.NTTask, r.NTState.String()}
	}
	emitRuns := func(track string, at func(StepRow) cell) {
		var cur cell
		start := 0
		flush := func(end int) {
			if cur.task != "" {
				tr.Span(track, cur.state, cur.task, float64(start), float64(end))
			}
		}
		for i, r := range rows {
			c := at(r)
			if c != cur {
				flush(r.Time)
				cur, start = c, r.Time
			}
			if i == len(rows)-1 {
				flush(r.Time + 1)
			}
		}
	}
	emitRuns("CT", ct)
	emitRuns("NT", nt)
}

// BounceOrderNames returns the task-name sequence of a plan, e.g.
// [T0 T1 T3 T2] for the 2x2 split of Fig. 5 under the bounce corner turn.
func BounceOrderNames(p *Plan) []string {
	out := make([]string, len(p.Tasks))
	for i, t := range p.Tasks {
		out[i] = t.Name
	}
	return out
}
