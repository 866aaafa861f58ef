package taskgraph

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim/simtest"
)

// dropScratch is the test-only hook that forgets the working memory a
// Scheduler keeps between Runs, so the next Run makes all of it anew — what
// every Run did before the scratch moved into the Scheduler.
func (s *Scheduler) dropScratch() { s.run = s.emptyRun() }

// luScratch is what luIterationGraph fills besides the graph: its handle
// tables and access list, kept by a caller that rebuilds so that a rebuild
// allocates only the names.
type luScratch struct {
	handles []*Handle
	accs    []Access
}

// luNames is the number of names luIterationGraph formats for an nt×nt grid:
// 2nt+nt² handles (piv is a constant) and 2+nt+nt² tasks.
func luNames(nt int) int { return 2*nt + nt*nt + 2 + nt + nt*nt }

// The LU iteration's codelets, made once: every task of a class shares one.
var (
	luPanel = &Codelet{Name: "lu.panel", CPUSeconds: luCPUSeconds}
	luTrsm  = &Codelet{Name: "lu.trsm", CPUSeconds: luCPUSeconds}
	luGemm  = &Codelet{Name: "lu.gemm", CPUSeconds: luCPUSeconds,
		GPUSeconds: func(t *Task, _ int) float64 { return t.Flops / 80e9 }}
)

func luCPUSeconds(t *Task, _ int) float64 { return t.Flops / 4e9 }

// luIterationGraph builds, on g, one LU iteration over an nt×nt trailing tile
// grid the way the graph stepper does: panel, a trsm prep per column, the
// tile updates column by column, and the look-ahead panel on column 0. Tiles
// are 256 KiB, so on the 8 MiB device of the test the larger grids evict.
func luIterationGraph(g *Graph, sc *luScratch, k, nt int) {
	const tile = 256 << 10
	piv := g.NewHandle("piv", 1024)
	if cap(sc.handles) < 2*nt+nt*nt {
		sc.handles = make([]*Handle, 2*nt+nt*nt)
	}
	ls, us, ts := sc.handles[:nt], sc.handles[nt:2*nt], sc.handles[2*nt:2*nt+nt*nt]
	for i := 0; i < nt; i++ {
		ls[i] = g.NewHandle(Name("l(%d)", i), tile)
		us[i] = g.NewHandle(Name("u(%d)", i), tile)
		for c := 0; c < nt; c++ {
			ts[i*nt+c] = g.NewHandle(Name("t(%d,%d)", i, c), tile)
		}
	}
	accs := append(sc.accs[:0], Access{piv, Write})
	for _, l := range ls {
		accs = append(accs, Access{l, Write})
	}
	g.Add(Task{Name: Name("panel(%d)", k), Codelet: luPanel, Flops: 2e8, Priority: 3}, accs...)
	for c := 0; c < nt; c++ {
		g.Add(Task{Name: Name("prep(%d,%d)", k, c), Codelet: luTrsm, Flops: 1e8, Priority: 2},
			Access{piv, Read}, Access{us[c], Write})
	}
	for c := 0; c < nt; c++ {
		for r := 0; r < nt; r++ {
			g.Add(Task{Name: Name("upd(%d,%d,%d)", k, r, c), Codelet: luGemm, Flops: 1e9,
				Shape: [3]int{256, 256, 128}},
				Access{ls[r], Read}, Access{us[c], Read}, Access{ts[r*nt+c], ReadWrite})
		}
	}
	accs = accs[:0]
	for r := 0; r < nt; r++ {
		accs = append(accs, Access{ts[r*nt], ReadWrite})
	}
	next := g.Add(Task{Name: Name("panel(%d)", k+1), Codelet: luPanel, Flops: 1e8, Priority: 3}, accs...)
	g.After(next, g.Tasks()[0]) // an explicit edge, grown in place at the slab's tail
	sc.accs = accs
}

// TestResetGraphMatchesFresh: a sequence of LU-iteration graphs that grows
// before it shrinks and then repeats a shape (4×4, 9×9, 3×3, 3×3 tiles — the
// repository's digests only ever shrink) gives, on one graph Reset between iterations and one Scheduler
// reusing its scratch, exactly what it gives built with New each time on a
// Scheduler that forgets its scratch between Runs: every Report (each
// TaskSpan, the byte counts, the tally) and every task's dependency list,
// order included. A report's spans are the Scheduler's scratch, so each is
// copied before the next Run. (Mutation-checked: NewHandle keeping the slot's
// old reader chain, gpu.Residency.Begin keeping the old slots, and validate
// keeping the old declared stamps each fail it — the last on the repeated
// shape, where a tile's only declarer has the id it had the Run before. indeg
// and finish are written before they are read, so nothing rides on their
// being cleared.)
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
		var sc luScratch
		var out []outcome
		at := 0.0
		for k, nt := range sizes {
			if reuse {
				g.Reset()
			} else {
				g = New()
				sch.dropScratch()
			}
			luIterationGraph(g, &sc, k, nt)
			rep, err := sch.Run(g, at)
			if err != nil {
				t.Fatalf("reuse %v, iteration %d: %v", reuse, k, err)
			}
			rep.TaskSpans = slices.Clone(rep.TaskSpans)
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

// TestSchedulerRerunAllocs: once one Scheduler and one Graph have run an
// LU-iteration shape, rebuilding that shape after a Reset and running it again
// allocates exactly the names the builder formats — nothing in Add, the
// reader chains, validation, placement, residency, verification or the
// report's span list. (Mutation-checked: a fresh TaskSpans per Run fails it.)
func TestSchedulerRerunAllocs(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const nt = 9 // evicts on the 8 MiB device, so write-backs are booked too
	el := element.New(element.Config{Seed: 31, Virtual: true, GPUMem: 8 << 20})
	sch := NewScheduler(el, Options{Verify: true})
	g := New()
	var sc luScratch
	var rep Report
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		g.Reset()
		luIterationGraph(g, &sc, 0, nt)
		rep, err = sch.Run(g, rep.End)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesOut == 0 || len(rep.TaskSpans) != g.Len() {
		t.Fatalf("the re-run wrote back %d bytes and placed %d of %d tasks: not the evicting shape", rep.BytesOut, len(rep.TaskSpans), g.Len())
	}
	if want := float64(luNames(nt)); allocs != want {
		t.Errorf("a warm re-run allocates %.0f times, want %.0f: one per name the builder formats", allocs, want)
	}
}

// TestReaderChainsAcrossReset: the reader links a write releases are reused
// within a build and stay behind at a Reset. A graph built after one whose
// writes left released links infers exactly the dependency lists a fresh
// graph does, order included. (Mutation-checked: Reset keeping the free link
// chain fails it.)
func TestReaderChainsAcrossReset(t *testing.T) {
	// build declares, over two handles, rounds of reads each closed by a
	// write, so every round releases its chain and the next reuses it.
	build := func(g *Graph, rounds, readers int) {
		hs := []*Handle{g.NewHandle("a", 8), g.NewHandle("b", 8)}
		for r := 0; r < rounds; r++ {
			for i := 0; i < readers; i++ {
				g.Add(Task{Name: Name("r(%d,%d)", r, i), Codelet: unitCPU},
					Access{hs[i%2], Read}, Access{hs[(i+r)%2], Read})
			}
			g.Add(Task{Name: Name("w(%d)", r), Codelet: unitCPU}, Access{hs[r%2], ReadWrite})
		}
	}
	deps := func(g *Graph) [][]int {
		var out [][]int
		for _, task := range g.Tasks() {
			out = append(out, slices.Clone(task.Deps()))
		}
		return out
	}
	fresh := New()
	build(fresh, 4, 3)
	g := New()
	build(g, 3, 5) // ends with the last round's chain released, the other live
	g.Reset()
	build(g, 4, 3)
	if got, want := deps(g), deps(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("dependency lists after a Reset\n got %v\nwant %v", got, want)
	}
}

// TestAddZeroesCopiedMark: a task value carried over from another graph, or
// from before a Reset, keeps the dependency mark it had there; Add must clear
// it, or the Add whose epoch equals that stale mark skips the task as a
// dependency. Each case builds writer, reader, reader, writer over one handle
// with the carried-over task as the first writer — so the first reader is the
// Add with the stale mark's epoch — and checks every inferred dependency.
// (Mutation-checked: dropping Add's zeroing of the mark fails both cases.)
func TestAddZeroesCopiedMark(t *testing.T) {
	// marked returns a copy of the first task of a writer-reader pair, so
	// that its mark is 2 (the reader's Add), with its accesses cleared for
	// Add.
	marked := func(g *Graph) Task {
		h := g.NewHandle("h", 8)
		w := g.Add(Task{Name: "w", Codelet: unitCPU}, Access{h, Write})
		g.Add(Task{Name: "r", Codelet: unitCPU}, Access{h, Read})
		if w.mark != 2 {
			t.Fatalf("setup: the writer's mark is %d, want 2", w.mark)
		}
		cp := *w
		cp.Accesses = nil
		return cp
	}
	for _, tc := range []struct {
		name  string
		setup func() (*Graph, Task)
	}{
		{"from another graph", func() (*Graph, Task) { return New(), marked(New()) }},
		{"from before a Reset", func() (*Graph, Task) {
			g := New()
			cp := marked(g)
			g.Reset()
			return g, cp
		}},
	} {
		g, carried := tc.setup()
		h := g.NewHandle("x", 8)
		g.Add(carried, Access{h, Write})
		r1 := g.Add(Task{Name: "x1", Codelet: unitCPU}, Access{h, Read})
		r2 := g.Add(Task{Name: "x2", Codelet: unitCPU}, Access{h, Read})
		w := g.Add(Task{Name: "x3", Codelet: unitCPU}, Access{h, ReadWrite})
		for _, c := range []struct {
			task *Task
			want []int
		}{{r1, []int{0}}, {r2, []int{0}}, {w, []int{0, 1, 2}}} {
			if !reflect.DeepEqual(c.task.Deps(), c.want) {
				t.Errorf("%s: %s deps = %v, want %v", tc.name, c.task.Name, c.task.Deps(), c.want)
			}
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
	add := func(g *Graph, name string) *Task { return g.Add(Task{Name: name, Codelet: unitCPU}) }
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
			return g, mine, &Task{Name: "loose", Codelet: unitCPU}
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
	g.Add(Task{Name: "ok", Codelet: unitCPU}, Access{live, Write})
	bad := g.Add(Task{Name: "bad", Codelet: unitCPU}, Access{live, Read}, Access{old, Write})
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
