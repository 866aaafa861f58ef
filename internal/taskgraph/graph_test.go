package taskgraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

func cpuCost(s float64) Costs { return Costs{CPUSeconds: func(*Task) float64 { return s }} }

func bothCosts(c, g float64) Costs {
	return Costs{
		CPUSeconds: func(*Task) float64 { return c },
		GPUSeconds: func(*Task) float64 { return g },
	}
}

func TestDependencyInference(t *testing.T) {
	g := New()
	h := g.NewHandle("x", 100)
	o := g.NewHandle("y", 100)

	w0 := g.Add(Task{Name: "w0", Costs: cpuCost(1)}, []Access{{h, Write}}...)
	r1 := g.Add(Task{Name: "r1", Costs: cpuCost(1)}, []Access{{h, Read}, {o, Write}}...)
	r2 := g.Add(Task{Name: "r2", Costs: cpuCost(1)}, []Access{{h, Read}}...)
	w3 := g.Add(Task{Name: "w3", Costs: cpuCost(1)}, []Access{{h, ReadWrite}}...)
	r4 := g.Add(Task{Name: "r4", Costs: cpuCost(1)}, []Access{{h, Read}}...)

	// RAW: both readers depend on the writer.
	if !reflect.DeepEqual(r1.Deps(), []int{w0.ID()}) {
		t.Errorf("r1 deps = %v, want [w0]", r1.Deps())
	}
	if !reflect.DeepEqual(r2.Deps(), []int{w0.ID()}) {
		t.Errorf("r2 deps = %v, want [w0]", r2.Deps())
	}
	// WAR + WAW: the next writer waits on the previous writer and all
	// readers since.
	if !reflect.DeepEqual(w3.Deps(), []int{w0.ID(), r1.ID(), r2.ID()}) {
		t.Errorf("w3 deps = %v, want [w0 r1 r2]", w3.Deps())
	}
	// The reader barrier resets after a write.
	if !reflect.DeepEqual(r4.Deps(), []int{w3.ID()}) {
		t.Errorf("r4 deps = %v, want [w3]", r4.Deps())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAfterAddsExplicitEdges(t *testing.T) {
	g := New()
	a := g.Add(Task{Name: "a", Costs: cpuCost(1)})
	b := g.Add(Task{Name: "b", Costs: cpuCost(1)})
	g.After(b, a, a) // duplicate collapses
	if !reflect.DeepEqual(b.Deps(), []int{a.ID()}) {
		t.Errorf("b deps = %v, want [a]", b.Deps())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	g := New()
	g.Add(Task{Name: "dup", Costs: cpuCost(1)})
	g.Add(Task{Name: "dup", Costs: cpuCost(1)})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate task names")
	}
}

func TestAddPanicsWithoutVariant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a task with no device variant")
		}
	}()
	New().Add(Task{Name: "none"})
}

// mapInferredDeps is the dependency inference Graph.Add and Graph.After did
// before their state became slices, transcribed: maps keyed by handle id and
// a fresh seen-set per task. explicit, when not nil, lists per task the After
// edges asked for right after its Add.
func mapInferredDeps(tasks []*Task, explicit [][]int) [][]int {
	lastWriter := map[int]int{}
	readers := map[int][]int{}
	out := make([][]int, len(tasks))
	for _, t := range tasks {
		seen := map[int]bool{}
		dep := func(id int) {
			if id >= 0 && id != t.id && !seen[id] {
				seen[id] = true
				out[t.id] = append(out[t.id], id)
			}
		}
		for _, a := range t.Accesses {
			switch a.Mode {
			case Read:
				if w, ok := lastWriter[a.H.id]; ok {
					dep(w)
				}
				readers[a.H.id] = append(readers[a.H.id], t.id)
			case Write, ReadWrite:
				if w, ok := lastWriter[a.H.id]; ok {
					dep(w)
				}
				for _, r := range readers[a.H.id] {
					dep(r)
				}
				lastWriter[a.H.id] = t.id
				readers[a.H.id] = nil
			}
		}
		if explicit != nil {
			for _, d := range explicit[t.id] {
				dep(d)
			}
		}
	}
	return out
}

// TestAddMatchesMapInference: the slice-indexed inference produces the same
// dependencies in the same order as the map-based one, over the fuzz
// decoder's graphs and over the shapes that stress the per-handle state — a
// write after many reads, re-reads after a write (the reader list is
// truncated and reused, not dropped), one task touching a handle twice, and
// several handles sharing a last writer.
func TestAddMatchesMapInference(t *testing.T) {
	check := func(name string, g *Graph, explicit [][]int) {
		t.Helper()
		want := mapInferredDeps(g.Tasks(), explicit)
		for _, task := range g.Tasks() {
			if got := task.Deps(); !reflect.DeepEqual(got, want[task.id]) {
				t.Fatalf("%s: task %s deps = %v, map inference gives %v", name, task.Name, got, want[task.id])
			}
		}
	}

	rng := sim.NewRNG(17)
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(400))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		g, _, explicit := decodeGraph(data)
		check(fmt.Sprintf("decoded graph %d", i), g, explicit)
	}

	type step struct {
		h    int
		mode AccessMode
	}
	r, w, rw := Read, Write, ReadWrite
	manyReads := [][]step{{{0, w}}}
	for i := 0; i < 60; i++ {
		manyReads = append(manyReads, []step{{0, r}})
	}
	shapes := map[string][][]step{
		"write after many reads":   append(manyReads, []step{{0, rw}}, []step{{0, r}}),
		"re-read after write":      {{{0, w}}, {{0, r}}, {{0, r}}, {{0, w}}, {{0, r}}, {{0, rw}}, {{0, r}}, {{0, r}}, {{0, r}}, {{0, w}}},
		"handle twice in one task": {{{0, w}}, {{0, r}, {0, w}}, {{0, w}, {0, r}}, {{0, r}}, {{0, r}, {0, r}}, {{0, rw}, {0, rw}}},
		"shared last writer":       {{{0, w}, {1, w}, {2, w}}, {{0, r}, {1, r}}, {{2, r}, {0, r}}, {{0, w}, {1, rw}, {2, r}}, {{2, w}}},
		"never written":            {{{0, r}}, {{0, r}, {1, r}}, {{1, w}}, {{0, w}}},
	}
	for name, tasks := range shapes {
		g := New()
		var hs []*Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, g.NewHandle(fmt.Sprintf("h%d", i), 8))
		}
		for i, accs := range tasks {
			var declared []Access
			for _, a := range accs {
				declared = append(declared, Access{hs[a.h], a.mode})
			}
			g.Add(Task{Name: fmt.Sprintf("t%d", i), Costs: cpuCost(1)}, declared...)
		}
		check(name, g, nil)
	}
}

// TestValidateRejectsBadAccesses: a handle declared twice by one task, or one
// registered in another graph (whose id would alias one of this graph's
// residency slots), is an error from Validate and so from Run — not a panic.
func TestValidateRejectsBadAccesses(t *testing.T) {
	other := New()
	other.NewHandle("pad", 8)
	foreign := other.NewHandle("foreign", 8) // id 1: in range here, a different handle
	other.NewHandle("pad2", 8)
	beyond := other.NewHandle("foreign-beyond", 8) // id 3: past this graph's handles
	for _, tc := range []struct {
		name  string
		accs  func(a, b *Handle) []Access
		wants string
	}{
		{"read and write of one handle", func(a, b *Handle) []Access { return []Access{{a, Read}, {b, Read}, {a, Write}} }, `declares handle "a" twice`},
		{"same access twice", func(a, b *Handle) []Access { return []Access{{b, ReadWrite}, {b, ReadWrite}} }, `declares handle "b" twice`},
		{"foreign handle with an id in range", func(a, b *Handle) []Access { return []Access{{a, Read}, {foreign, Write}} }, `handle "foreign", which is not registered in this graph`},
		{"foreign handle with an id out of range", func(a, b *Handle) []Access { return []Access{{beyond, Read}} }, `handle "foreign-beyond", which is not registered in this graph`},
	} {
		g := New()
		a, b := g.NewHandle("a", 8), g.NewHandle("b", 8)
		g.Add(Task{Name: "ok", Costs: cpuCost(1)}, []Access{{a, Write}, {b, Write}}...)
		g.Add(Task{Name: "bad", Costs: bothCosts(1, 1)}, tc.accs(a, b)...)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wants) || !strings.Contains(err.Error(), `task "bad"`) {
			t.Errorf("%s: Validate = %v, want an error naming task \"bad\" that %s", tc.name, err, tc.wants)
		}
		el := element.New(element.Config{Seed: 1, Virtual: true})
		if _, runErr := NewScheduler(el, Options{}).Run(g, 0); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run = %v, want Validate's error", tc.name, runErr)
		}
	}
	// The same handle in two different tasks is the normal case.
	g := New()
	a := g.NewHandle("a", 8)
	g.Add(Task{Name: "t0", Costs: cpuCost(1)}, []Access{{a, Write}}...)
	g.Add(Task{Name: "t1", Costs: cpuCost(1)}, []Access{{a, Read}}...)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate rejected one handle declared by two tasks: %v", err)
	}
}
