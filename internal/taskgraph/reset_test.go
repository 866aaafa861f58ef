package taskgraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tianhe/internal/element"
)

// dropScratch is the test-only hook that forgets the working memory a
// Scheduler keeps between Runs, so the next Run makes all of it anew — what
// every Run did before the scratch moved into the Scheduler.
func (s *Scheduler) dropScratch() { s.run = s.emptyRun() }

// luIterationGraph builds, on g, one LU iteration over an nt×nt trailing tile
// grid the way the graph stepper does: panel, a trsm prep per column, the
// tile updates column by column, and the look-ahead panel on column 0. Tiles
// are 256 KiB, so on the 8 MiB device of the test the larger grids evict.
func luIterationGraph(g *Graph, k, nt int) {
	const tile = 256 << 10
	cpu := func(t *Task) float64 { return t.Flops / 4e9 }
	gpu := func(t *Task) float64 { return t.Flops / 80e9 }
	piv := g.NewHandle("piv", 1024)
	ls, us, ts := make([]*Handle, nt), make([]*Handle, nt), make([]*Handle, nt*nt)
	for i := 0; i < nt; i++ {
		ls[i] = g.NewHandle(Name("l(%d)", i), tile)
		us[i] = g.NewHandle(Name("u(%d)", i), tile)
		for c := 0; c < nt; c++ {
			ts[i*nt+c] = g.NewHandle(Name("t(%d,%d)", i, c), tile)
		}
	}
	accs := []Access{{piv, Write}}
	for _, l := range ls {
		accs = append(accs, Access{l, Write})
	}
	g.Add(Task{Name: Name("panel(%d)", k), Codelet: "lu.panel", Flops: 2e8, Priority: 3,
		Costs: Costs{CPUSeconds: cpu}}, accs...)
	for c := 0; c < nt; c++ {
		g.Add(Task{Name: Name("prep(%d,%d)", k, c), Codelet: "lu.trsm", Flops: 1e8, Priority: 2,
			Costs: Costs{CPUSeconds: cpu}}, Access{piv, Read}, Access{us[c], Write})
	}
	for c := 0; c < nt; c++ {
		for r := 0; r < nt; r++ {
			g.Add(Task{Name: Name("upd(%d,%d,%d)", k, r, c), Codelet: "lu.gemm", Flops: 1e9,
				Shape: [3]int{256, 256, 128}, Costs: Costs{CPUSeconds: cpu, GPUSeconds: gpu}},
				Access{ls[r], Read}, Access{us[c], Read}, Access{ts[r*nt+c], ReadWrite})
		}
	}
	accs = accs[:0]
	for r := 0; r < nt; r++ {
		accs = append(accs, Access{ts[r*nt], ReadWrite})
	}
	next := g.Add(Task{Name: Name("panel(%d)", k+1), Codelet: "lu.panel", Flops: 1e8, Priority: 3,
		Costs: Costs{CPUSeconds: cpu}}, accs...)
	g.After(next, g.Tasks()[0]) // an explicit edge, grown in place at the slab's tail
}

// TestResetGraphMatchesFresh: a sequence of LU-iteration graphs that grows
// before it shrinks and then repeats a shape (4×4, 9×9, 3×3, 3×3 tiles — the
// repository's digests only ever shrink) gives, on one graph Reset between iterations and one Scheduler
// reusing its scratch, exactly what it gives built with New each time on a
// Scheduler that forgets its scratch between Runs: every Report (each
// TaskSpan, the byte counts, the tally) and every task's dependency list,
// order included. (Mutation-checked: NewHandle keeping the slot's old readers,
// gpu.Residency.Begin keeping the old slots, and validate keeping the old
// declared stamps each fail it — the last on the repeated shape, where a
// tile's only declarer has the id it had the Run before. indeg and finish are
// written before they are read, so nothing rides on their being cleared.)
func TestResetGraphMatchesFresh(t *testing.T) {
	sizes := []int{4, 9, 3, 3}
	type outcome struct {
		rep  Report
		deps [][]int
	}
	play := func(reuse bool) []outcome {
		el := element.New(element.Config{Seed: 31, Virtual: true, GPUMem: 8 << 20})
		sch := NewScheduler(el, Options{Verify: true})
		g := New()
		var out []outcome
		at := 0.0
		for k, nt := range sizes {
			if reuse {
				g.Reset()
			} else {
				g = New()
				sch.dropScratch()
			}
			luIterationGraph(g, k, nt)
			rep, err := sch.Run(g, at)
			if err != nil {
				t.Fatalf("reuse %v, iteration %d: %v", reuse, k, err)
			}
			o := outcome{rep: rep}
			for _, task := range g.Tasks() {
				o.deps = append(o.deps, append([]int(nil), task.Deps()...))
			}
			out = append(out, o)
			at = rep.End
		}
		return out
	}
	got, want := play(true), play(false)
	for k := range sizes {
		if !reflect.DeepEqual(got[k].deps, want[k].deps) {
			t.Errorf("iteration %d: dependency lists differ between the Reset graph and a fresh one", k)
		}
		if !reflect.DeepEqual(got[k].rep, want[k].rep) {
			t.Errorf("iteration %d: reports differ\n reused %+v\n  fresh %+v", k,
				summary(got[k].rep), summary(want[k].rep))
		}
		if got[k].rep.BytesOut == 0 && sizes[k] == 9 {
			t.Errorf("iteration %d wrote nothing back: the 9×9 grid no longer evicts, so the residency slots go untested", k)
		}
	}
}

// summary is a Report without its span list, for failure messages.
func summary(r Report) Report {
	r.TaskSpans = nil
	return r
}

// TestGraphRejectsForeignAndStale: a task or handle that is not a live
// member of the graph — from a larger graph, from a smaller one, from before
// a Reset, or never added at all — is refused by name: After panics with its
// typed messages (it once indexed out of range on the first case), and a
// stale handle is skipped by Add and named by Validate.
func TestGraphRejectsForeignAndStale(t *testing.T) {
	add := func(g *Graph, name string) *Task { return g.Add(Task{Name: name, Costs: cpuCost(1)}) }
	// build returns a graph of n tasks and its last task.
	build := func(prefix string, n int) (*Graph, *Task) {
		g := New()
		var last *Task
		for i := 0; i < n; i++ {
			last = add(g, fmt.Sprintf("%s%d", prefix, i))
		}
		return g, last
	}
	for _, tc := range []struct {
		name  string
		setup func() (g *Graph, mine, other *Task)
	}{
		{"foreign, from a larger graph", func() (*Graph, *Task, *Task) {
			g, mine := build("t", 2)
			_, other := build("big", 5)
			return g, mine, other
		}},
		{"foreign, from a smaller graph", func() (*Graph, *Task, *Task) {
			g, mine := build("t", 2)
			_, other := build("small", 1)
			return g, mine, other
		}},
		{"stale after Reset", func() (*Graph, *Task, *Task) {
			g, old := build("old", 3)
			g.Reset()
			return g, add(g, "new0"), old // old has id 2 in a graph that now has one task
		}},
		{"not yet added", func() (*Graph, *Task, *Task) {
			g, mine := build("t", 2)
			return g, mine, &Task{Name: "loose", Costs: cpuCost(1)}
		}},
	} {
		g, mine, other := tc.setup()
		for _, call := range []struct {
			what  string
			fn    func()
			wants string
		}{
			{"After(mine, other)", func() { g.After(mine, other) }, fmt.Sprintf("dependency %q of %q not in this graph", other.Name, mine.Name)},
			{"After(other, mine)", func() { g.After(other, mine) }, fmt.Sprintf("After on task %q before Add", other.Name)},
		} {
			msg := panicMessage(call.fn)
			if !strings.Contains(msg, call.wants) {
				t.Errorf("%s: %s panicked with %q, want a message containing %q", tc.name, call.what, msg, call.wants)
			}
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: the refused calls damaged the graph: %v", tc.name, err)
		}
	}

	// Handles: one from before a Reset never aliases a live slot.
	g := New()
	g.NewHandle("pad", 8)
	old := g.NewHandle("old", 8)
	g.Reset()
	live := g.NewHandle("live", 8)
	g.Add(Task{Name: "ok", Costs: cpuCost(1)}, Access{live, Write})
	bad := g.Add(Task{Name: "bad", Costs: cpuCost(1)}, Access{live, Read}, Access{old, Write})
	if !reflect.DeepEqual(bad.Deps(), []int{0}) {
		t.Errorf("deps of the task declaring a stale handle = %v, want only the live handle's writer", bad.Deps())
	}
	err := g.Validate()
	if want := `task "bad" declares handle "old", which is not registered in this graph`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Validate = %v, want an error containing %q", err, want)
	}
}

// panicMessage runs fn and returns what it panicked with, "" if it did not.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}
