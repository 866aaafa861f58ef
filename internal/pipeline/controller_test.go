package pipeline

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"tianhe/internal/blas"
	"tianhe/internal/gpu"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// scheduleOrder reduces Table I to the order in which tasks enter their
// input and EO states: CT's column first, then what NT does under it.
func scheduleOrder(rows []StepRow) []string {
	var order []string
	for _, r := range rows {
		switch r.CTState {
		case CTInput:
			order = append(order, r.CTTask+" input")
		case CTEO:
			order = append(order, r.CTTask+" eo")
		}
		if r.NTTask != "" && r.NTState == NTInput {
			order = append(order, r.NTTask+" input")
		}
	}
	return order
}

// TestControllerEnumeration runs every plan up to 3x3 tiles x K in up to
// three tiles x {bounce, row-major} x {overlap on, off} x {blocked EO on, off}
// with real data on a device that holds exactly the working set ChooseTile
// sizes for, and checks the two drivers of the CT/NT controller against each
// other and the hazards the paper argues informally:
//
//   - the order in which the executor's tasks enter input and EO is the one
//     Schedule prints for the same queue;
//   - with overlap a task's fresh inputs start no earlier than its
//     predecessor's EO stage and are on the DMA engine ahead of the
//     predecessor's output;
//   - no kernel reads an evicted tile (the device panics on a freed buffer)
//     and the result is blas.Dgemm's;
//   - neither the DMA engine nor the command queue is ever double-booked;
//   - device memory in use never exceeds the device and is zero at return,
//     and on the virtual path the residency manager's bytes never exceed it;
//   - the virtual path books the same two timelines span for span.
//
// Two mutations turn it red: retiring a task in control before its
// successor's N-INPUT (the input then queues behind the output on the DMA
// engine), and staging every step's operands in launch before issuing the
// first kernel (a K-split task then evicts a tile it has not yet read).
func TestControllerEnumeration(t *testing.T) {
	const tile, blockRows = 16, 8
	cfg := gpu.Config{MemBytes: 4*8*tile*tile + 2*8*blockRows*tile, TextureLimit: tile}
	// cell counts through row, column and K tiles (base 3), then the options.
	for cell := 0; cell < 27*8; cell++ {
		rt, ct, kt := 1+cell%3, 1+cell/3%3, 1+cell/9%3
		opts := Options{Tile: tile, BlockRows: blockRows,
			Reuse: cell/27&1 != 0, OverlapInput: cell/27&2 != 0, BlockedEO: cell/27&4 != 0}
		m, n, k := rt*tile-3, ct*tile-7, kt*tile-5
		name := fmt.Sprintf("%dx%dx%d tiles %+v", rt, ct, kt, opts)

		tel := telemetry.New()
		opts.Telemetry = tel
		dev := gpu.New(cfg)
		var spans [2][]sim.Span // what the DMA engine and the queue booked
		for i, tl := range []*sim.Timeline{dev.DMA, dev.Queue} {
			tl.SetObserver(func(sp sim.Span) {
				if dev.MemUsed() > dev.MemBytes() {
					t.Errorf("%s: %d bytes in use on a %d-byte device", name, dev.MemUsed(), dev.MemBytes())
				}
				spans[i] = append(spans[i], sp)
			})
		}
		r := sim.NewRNG(uint64(cell))
		a, b, c := matrix.NewDense(m, k), matrix.NewDense(k, n), matrix.NewDense(m, n)
		a.FillRandom(r)
		b.FillRandom(r)
		c.FillRandom(r)
		want := c.Clone()
		blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b, 1, want)
		rep := NewExecutor(dev, opts).Execute(1, a, b, 1, c, 0)
		if d := c.MaxDiff(want); d > 1e-12 {
			t.Errorf("%s: result off by %v", name, d)
		}
		if dev.MemUsed() != 0 {
			t.Errorf("%s: %d device bytes still allocated at return", name, dev.MemUsed())
		}

		// Each encoding checks the other.
		var order []string
		input, eo, firstOut := map[string]sim.Span{}, map[string]sim.Span{}, map[string]sim.Time{}
		for _, e := range tel.Trace.Events() {
			switch e.Track {
			case "pipeline.input":
				order = append(order, e.Name+" input")
				input[e.Name] = sim.Span{Start: e.Start, End: e.End}
			case "pipeline.eo":
				order = append(order, e.Name+" eo")
				eo[e.Name] = sim.Span{Start: e.Start, End: e.End}
			case "pipeline.out", "pipeline.cb0", "pipeline.cb1":
				if _, seen := firstOut[e.Name]; !seen {
					firstOut[e.Name] = e.Start
				}
			}
		}
		p := NewPlan(m, n, k, tile, opts.Reuse)
		if want := scheduleOrder(Schedule(BounceOrderNames(p))); !slices.Equal(order, want) {
			t.Errorf("%s: executor phase order %v, Schedule says %v", name, order, want)
		}
		for i := 1; i < len(p.Tasks) && opts.OverlapInput; i++ {
			prev, cur := p.Tasks[i-1].Name, p.Tasks[i].Name
			if input[cur].Start < eo[prev].Start {
				t.Errorf("%s: %s inputs at %v, before %s enters EO at %v", name, cur, input[cur].Start, prev, eo[prev].Start)
			}
			if input[cur].End > firstOut[prev] {
				t.Errorf("%s: %s inputs until %v, behind %s's output at %v", name, cur, input[cur].End, prev, firstOut[prev])
			}
		}
		for i, tl := range []*sim.Timeline{dev.DMA, dev.Queue} {
			if len(spans[i]) == 0 {
				t.Errorf("%s: the observer captured no %s bookings", name, tl.Name())
			}
			for j := 1; j < len(spans[i]); j++ {
				if prev, cur := spans[i][j-1], spans[i][j]; cur.Start < prev.End {
					t.Errorf("%s: %s double-booked: %v then %v", name, tl.Name(), prev, cur)
				}
			}
		}

		// The virtual path allocates nothing, so its bytes invariant is the
		// manager's: resident operand tiles plus the output side's hold never
		// exceed the device at any booking. That checks the accounting, not
		// the timing: an upload may still be booked before its victim's last
		// kernel ends (EXPERIMENTS.md known deviation 4).
		opts.Telemetry = nil
		cfgV := cfg
		cfgV.Virtual = true
		devV := gpu.New(cfgV)
		exV := NewExecutor(devV, opts)
		var spansV [2][]sim.Span
		for i, tl := range []*sim.Timeline{devV.DMA, devV.Queue} {
			tl.SetObserver(func(sp sim.Span) {
				if used := exV.res.InUse(); used > devV.MemBytes() {
					t.Errorf("%s: virtual path holds %d bytes on a %d-byte device", name, used, devV.MemBytes())
				}
				spansV[i] = append(spansV[i], sp)
			})
		}
		if repV := exV.ExecuteVirtual(m, n, k, 1, 0); repV != rep {
			t.Errorf("%s: virtual report %+v, real %+v", name, repV, rep)
		}
		if !slices.Equal(spansV[0], spans[0]) || !slices.Equal(spansV[1], spans[1]) {
			t.Errorf("%s: the virtual path books a different timeline from the real one", name)
		}
	}
}

// TestOnePhaseOrder keeps Section V.C single-sourced. Schedule once walked
// the CT/NT states with a task loop of its own while the executor's run
// re-derived the same order from a deferred output job and six closures; now
// control is the only function in the package that calls a driver's phase
// methods, and neither Schedule nor run has a loop (what is still resident at
// the end of a run is released by the device-memory manager's Reset).
func TestOnePhaseOrder(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	phase := map[string]bool{"adopt": true, "input": true, "launch": true, "retire": true}
	var deciders []string
	seen := map[string]bool{}
	for _, file := range pkgs["pipeline"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			seen[fn.Name.Name] = true
			calls, loops := 0, 0
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && phase[sel.Sel.Name] {
						calls++
					}
				case *ast.ForStmt, *ast.RangeStmt:
					loops++
				}
				return true
			})
			if calls > 0 {
				deciders = append(deciders, fn.Name.Name)
			}
			if (fn.Name.Name == "Schedule" || fn.Name.Name == "run") && loops > 0 {
				t.Errorf("%s: %s loops — the task walk belongs to control", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
	if !slices.Equal(deciders, []string{"control"}) {
		t.Errorf("functions deciding CT/NT phase order: %v, want control alone", deciders)
	}
	if !seen["Schedule"] || !seen["run"] {
		t.Fatal("Schedule or run not found: the check is looking at the wrong package")
	}
}
