package taskgraph

import (
	"fmt"
	"reflect"
	"testing"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
)

// fuzzHybrid are the decoder's two hybrid codelets, each shared by every
// task that picks it: a fixed half split, each half costed in proportion to
// its rows, one plain and one that refines the split by the cores' head start
// and uploads only the device rows' share of its reads.
var fuzzHybrid = [2]*Codelet{fuzzHybridCodelet(false), fuzzHybridCodelet(true)}

func fuzzHybridCodelet(skew bool) *Codelet {
	return &Codelet{Name: "c3",
		CPUSeconds: func(t *Task, rows int) float64 { return t.Flops / 4e10 * float64(rows) / float64(t.Rows) },
		GPUSeconds: func(t *Task, rows int) float64 { return t.Flops / 1e11 * float64(rows) / float64(t.Rows) },
		Hybrid:     &Hybrid{Part: adaptive.NewStatic(0.5, 0), SplitReads: skew, FillSkew: skew},
	}
}

// decodeGraph decodes arbitrary bytes into a task/dependency set: up to 24
// tasks over six handles with random variants (CPU, GPU, both, or a shared
// hybrid codelet over 1 to 64 rows), access modes, priorities and explicit
// After edges. A handle the bytes pick twice for one task is
// declared once, as Validate requires. ran counts each body's executions;
// explicit lists, per task, the After edges asked for, in call order.
func decodeGraph(data []byte) (g *Graph, ran []int, explicit [][]int) {
	g = New()
	ran, explicit = decodeGraphInto(g, data)
	return g, ran, explicit
}

// decodeGraphInto builds decodeGraph's graph on g, which must be empty.
func decodeGraphInto(g *Graph, data []byte) (ran []int, explicit [][]int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next())%24 + 1

	handles := make([]*Handle, 6)
	for i := range handles {
		handles[i] = g.NewHandle(fmt.Sprintf("h%d", i), int64(i+1)*4096)
	}
	ran = make([]int, n)
	explicit = make([][]int, n)
	for i := 0; i < n; i++ {
		sel, cpuByte, gpuByte := next(), next(), next()
		cpuSec, gpuSec := float64(cpuByte%50+1)/1000, float64(gpuByte%50+1)/1000
		var cl *Codelet
		rows := 0
		switch sel % 4 {
		case 0:
			cl = cpuOnly("c0", cpuSec)
		case 1:
			cl = gpuOnly("c1", gpuSec)
		case 2:
			cl = both("c2", cpuSec, gpuSec)
		default:
			cl, rows = fuzzHybrid[sel/4%2], int(cpuByte%64)+1
		}
		nAcc := int(next()) % 4
		accs := make([]Access, 0, nAcc)
		var declared [6]bool
		for a := 0; a < nAcc; a++ {
			hi, mode := int(next())%len(handles), AccessMode(next()%3)
			if !declared[hi] {
				declared[hi] = true
				accs = append(accs, Access{H: handles[hi], Mode: mode})
			}
		}
		i := i
		task := g.Add(Task{
			Name:     fmt.Sprintf("t%02d", i),
			Codelet:  cl,
			Flops:    float64(next()+1) * 1e6,
			Priority: int(next() % 4),
			Rows:     rows,
			Run:      func() { ran[i]++ },
		}, accs...)
		// Explicit extra edges to earlier tasks, beyond access inference.
		for e := int(next()) % 3; e > 0 && i > 0; e-- {
			d := int(next()) % i
			explicit[i] = append(explicit[i], d)
			g.After(task, g.Tasks()[d])
		}
	}
	return ran, explicit
}

// FuzzGraphSchedule decodes arbitrary bytes into a task/dependency set and
// asserts the runtime's structural invariants: the scheduler never
// deadlocks (Run returns), every task is scheduled and its body executes
// exactly once, and no task starts before every dependency has finished —
// under both serial and parallel body execution, with hybrid tasks' split
// staging, core slabs and joins among the bookings. Each graph is built on a
// Graph that was Reset after holding (and running, on the same Scheduler) a
// different one decoded from the tail of the input, and must come out with
// the dependency lists of a freshly made graph.
func FuzzGraphSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{5, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 7, 7})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 255, 254, 253})
	f.Add([]byte{16, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44})
	// Six tasks, five of them hybrid over both shared codelets (one a
	// degenerate single row), chained through shared handles.
	f.Add([]byte{5, 3, 63, 0, 2, 0, 1, 1, 1, 255, 0, 0, 7, 40, 0, 3, 0, 0, 1, 0, 2, 1, 255, 1, 0, 2, 10, 5, 1, 2, 2, 100, 0, 0,
		3, 63, 0, 2, 2, 0, 3, 2, 200, 0, 1, 0, 7, 1, 0, 1, 3, 2, 200, 0, 0, 11, 0, 0, 1, 4, 1, 50, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, _, _ := decodeGraph(data)
		for _, par := range []int{1, 4} {
			el := element.New(element.Config{Seed: 77, Virtual: true})
			sch := NewScheduler(el, Options{Par: par})
			g := New()
			decodeGraphInto(g, data[len(data)/2:])
			if _, err := sch.Run(g, 0); err != nil {
				t.Fatalf("par %d: Run of the graph to forget: %v", par, err)
			}
			g.Reset()
			ran, _ := decodeGraphInto(g, data)
			n := len(ran)
			if err := g.Validate(); err != nil {
				t.Fatalf("builder produced an invalid graph: %v", err)
			}
			for i, task := range g.Tasks() {
				if want := fresh.Tasks()[i].Deps(); !reflect.DeepEqual(task.Deps(), want) {
					t.Fatalf("par %d: task %q deps = %v after a Reset, a fresh graph infers %v", par, task.Name, task.Deps(), want)
				}
			}
			rep, err := sch.Run(g, 0)
			if err != nil {
				t.Fatalf("par %d: Run: %v", par, err)
			}
			if len(rep.TaskSpans) != n {
				t.Fatalf("par %d: scheduled %d of %d tasks", par, len(rep.TaskSpans), n)
			}
			seen := map[string]bool{}
			finish := map[string]float64{}
			for _, ts := range rep.TaskSpans {
				if seen[ts.Name] {
					t.Fatalf("par %d: task %q scheduled twice", par, ts.Name)
				}
				seen[ts.Name] = true
				finish[ts.Name] = ts.End
			}
			for _, task := range g.Tasks() {
				ts, ok := rep.Span(task.Name)
				if !ok {
					t.Fatalf("par %d: task %q missing from the report", par, task.Name)
				}
				for _, d := range task.Deps() {
					dep := g.Tasks()[d]
					if ts.Start < finish[dep.Name] {
						t.Fatalf("par %d: %q started %v before dependency %q finished %v",
							par, task.Name, ts.Start, dep.Name, finish[dep.Name])
					}
				}
			}
			for i, c := range ran {
				if c != 1 {
					t.Fatalf("par %d: task t%02d body ran %d times, want exactly once", par, i, c)
				}
			}
		}
	})
}
