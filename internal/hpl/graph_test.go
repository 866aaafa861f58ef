package hpl

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/matrix"
	"tianhe/internal/taskgraph"
)

func testElement() *element.Element {
	return element.New(element.Config{Seed: 42, Virtual: true})
}

// TestGraphDgetrfMatchesMonolithic is the tentpole guarantee: the graph-
// expressed factorization produces bit-identical factors and pivots to the
// monolithic Dgetrf at every look-ahead depth and body parallelism.
func TestGraphDgetrfMatchesMonolithic(t *testing.T) {
	const n, nb = 160, 48 // uneven tiling: last tile is 16 wide
	a, _ := Generate(n, 7)

	want := a.Clone()
	wantPiv := make([]int, n)
	if err := Dgetrf(want, wantPiv, Options{NB: nb}); err != nil {
		t.Fatalf("monolithic Dgetrf: %v", err)
	}

	for _, depth := range []int{0, 1, 2, -1} {
		for _, par := range []int{1, 8} {
			for _, hybrid := range []bool{false, true} {
				got := a.Clone()
				gotPiv := make([]int, n)
				rep, err := GraphDgetrf(got, gotPiv, testElement(), GraphOptions{
					NB:        nb,
					Lookahead: depth,
					Hybrid:    hybrid,
					Sched:     taskgraph.Options{Par: par},
				})
				if err != nil {
					t.Fatalf("depth %d par %d hybrid %v: GraphDgetrf: %v", depth, par, hybrid, err)
				}
				if !got.Equal(want) {
					t.Errorf("depth %d par %d hybrid %v: graph factors differ from monolithic (max diff %g)",
						depth, par, hybrid, got.MaxDiff(want))
				}
				for i := range wantPiv {
					if gotPiv[i] != wantPiv[i] {
						t.Fatalf("depth %d par %d hybrid %v: pivot %d = %d, want %d",
							depth, par, hybrid, i, gotPiv[i], wantPiv[i])
					}
				}
				if rep.Tasks != len(rep.TaskSpans) || rep.Tasks == 0 {
					t.Errorf("depth %d par %d hybrid %v: inconsistent report: %d tasks, %d spans",
						depth, par, hybrid, rep.Tasks, len(rep.TaskSpans))
				}
			}
		}
	}
}

// TestGraphRunMatchesRun checks the full benchmark workflow end to end: the
// residual and the solution vector are bitwise identical to the monolithic
// driver.
func TestGraphRunMatchesRun(t *testing.T) {
	const n, nb = 128, 64
	want, err := Run(n, 11, Options{NB: nb})
	if err != nil {
		t.Fatalf("monolithic Run: %v", err)
	}
	got, rep, err := GraphRun(n, 11, testElement(), GraphOptions{NB: nb, Lookahead: 1})
	if err != nil {
		t.Fatalf("GraphRun: %v", err)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Errorf("graph residual %v != monolithic %v", got.Residual, want.Residual)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] = %v, want %v", i, got.X[i], want.X[i])
		}
	}
	if rep.Seconds() <= 0 || rep.GFLOPS() <= 0 {
		t.Errorf("degenerate schedule report: %v seconds, %v GFLOPS", rep.Seconds(), rep.GFLOPS())
	}
}

// TestGraphDgetrfSingularParity checks that singular pivots surface with the
// same step and leave the same factors as the monolithic path.
func TestGraphDgetrfSingularParity(t *testing.T) {
	const n, nb = 64, 32
	zero := matrix.NewDense(n, n)

	want := zero.Clone()
	wantPiv := make([]int, n)
	wantErr := Dgetrf(want, wantPiv, Options{NB: nb})
	var wantSing ErrSingular
	if !errors.As(wantErr, &wantSing) {
		t.Fatalf("monolithic Dgetrf on the zero matrix: %v, want ErrSingular", wantErr)
	}

	got := zero.Clone()
	gotPiv := make([]int, n)
	_, gotErr := GraphDgetrf(got, gotPiv, testElement(), GraphOptions{NB: nb, Lookahead: 1})
	var gotSing ErrSingular
	if !errors.As(gotErr, &gotSing) {
		t.Fatalf("GraphDgetrf on the zero matrix: %v, want ErrSingular", gotErr)
	}
	if gotSing.Step != wantSing.Step {
		t.Errorf("singular step %d, want %d", gotSing.Step, wantSing.Step)
	}
	if !got.Equal(want) {
		t.Error("factors after the singular factorization differ from monolithic")
	}
}

// TestGraphDgetrfRecoversUnderFaults runs the graph factorization through the
// lost-gpu and sdc-single scenarios: placement degrades to the CPU cores and
// ABFT verification fires, but the numerical output never changes — the
// arithmetic is placement-independent by construction.
func TestGraphDgetrfRecoversUnderFaults(t *testing.T) {
	const n, nb = 160, 48
	a, _ := Generate(n, 7)
	want := a.Clone()
	wantPiv := make([]int, n)
	if err := Dgetrf(want, wantPiv, Options{NB: nb}); err != nil {
		t.Fatalf("monolithic Dgetrf: %v", err)
	}

	// Healthy makespan calibrates the fault windows onto the run.
	healthy := a.Clone()
	rep, err := GraphDgetrf(healthy, make([]int, n), testElement(), GraphOptions{NB: nb, Lookahead: 1})
	if err != nil {
		t.Fatalf("healthy GraphDgetrf: %v", err)
	}
	horizon := rep.Seconds()

	for _, scen := range []string{"lost-gpu", "sdc-single", "lost-gpu+sdc-single"} {
		in, err := fault.NewScenario(scen, horizon, 99)
		if err != nil {
			t.Fatalf("scenario %s: %v", scen, err)
		}
		el := testElement()
		fault.Attach(in, el)
		got := a.Clone()
		gotPiv := make([]int, n)
		frep, err := GraphDgetrf(got, gotPiv, el, GraphOptions{
			NB:        nb,
			Lookahead: 1,
			Hybrid:    true,
			Sched: taskgraph.Options{
				GPUFallback: true,
				Verify:      true,
				SDC:         in,
			},
		})
		if err != nil {
			t.Fatalf("%s: GraphDgetrf: %v", scen, err)
		}
		if frep.Stalled {
			t.Fatalf("%s: stalled despite CPU fallback", scen)
		}
		if !got.Equal(want) {
			t.Errorf("%s: factors differ from monolithic under faults", scen)
		}
		for i := range wantPiv {
			if gotPiv[i] != wantPiv[i] {
				t.Fatalf("%s: pivot %d = %d, want %d", scen, i, gotPiv[i], wantPiv[i])
			}
		}
		if scen == "lost-gpu" && frep.TasksCPU == 0 {
			t.Errorf("lost-gpu: no task ever fell back to the CPU cores")
		}
		if scen == "sdc-single" && frep.SDCDetected != frep.SDCCorrected+frep.SDCEscalated {
			t.Errorf("sdc-single: detected %d != corrected %d + escalated %d",
				frep.SDCDetected, frep.SDCCorrected, frep.SDCEscalated)
		}
	}
}

// TestConcurrentElementsShareNothing: an element, its Scheduler and its graph
// are owned by one goroutine and keep no lock, so two of them placing on two
// goroutines at once must share no mutable state. Each concurrent run's
// report, task spans included, equals the same run made alone; under the
// race detector the pair also shows that neither touches the other's state.
func TestConcurrentElementsShareNothing(t *testing.T) {
	cases := []struct {
		seed   uint64
		hybrid bool
	}{{2009, true}, {4242, false}}
	run := func(seed uint64, hybrid bool) (taskgraph.Report, error) {
		el := element.New(element.Config{Seed: seed, Virtual: true})
		opts := GraphOptions{NB: 64, Lookahead: 1, Hybrid: hybrid,
			Sched: taskgraph.Options{Verify: true, RateSeeds: GraphRateSeeds(el, 64)}}
		g := BuildLUGraph(1024, nil, nil, el, nil, opts)
		return taskgraph.NewScheduler(el, opts.Sched).Run(g, 0)
	}
	alone := make([]taskgraph.Report, len(cases))
	for i, c := range cases {
		rep, err := run(c.seed, c.hybrid)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = rep
	}
	together := make([]taskgraph.Report, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	wg.Add(len(cases))
	for i, c := range cases {
		go func() {
			defer wg.Done()
			together[i], errs[i] = run(c.seed, c.hybrid)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(alone[i].TaskSpans) != 1496 || alone[i].TasksGPU == 0 {
			t.Fatalf("seed %d: %d spans, %d on the GPU: not the placed N=1024 graph", c.seed, len(alone[i].TaskSpans), alone[i].TasksGPU)
		}
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("seed %d hybrid %v: the concurrent run's report differs from the run made alone", c.seed, c.hybrid)
		}
	}
}
