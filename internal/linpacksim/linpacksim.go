// Package linpacksim simulates the time structure of one Linpack run on a
// single compute element, iteration by iteration: panel factorization and
// the U12 triangular solve on the CPU (overlapped with the trailing update
// in the usual look-ahead fashion), and the trailing m x n x NB DGEMM on the
// hybrid CPU/GPU path under one of the five evaluated configurations. The
// arithmetic is not performed — problem sizes like N = 46000 are far beyond
// real execution here — but the control structure, the adaptive feedback
// loop and every booked duration are identical to the real small-scale runs,
// which the hpl package verifies for correctness.
package linpacksim

import (
	"errors"
	"fmt"
	"sort"

	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

// bandTiles is the column width, in nb-tiles, of one hybrid trailing-update
// band: wide enough to amortize the kernel efficiency s-curve, narrow enough
// that the band's read set (the whole L block plus the band's U tiles) stays
// device-resident next to the scheduler's stream window.
const bandTiles = 16

// prepAheadCols bounds the look-ahead trsm preps: only the columns the next
// graph consumes as soon as it opens — its col-0 band and first wide band —
// must land before the iteration boundary. Preps for later bands run inside
// the next graph itself, overlapped with the leading bands' compute.
const prepAheadCols = bandTiles + 1

// hybridBandWidth returns the width of the band starting at tile column c0
// in the hybrid layout over nt tile columns: column block 0 alone (it feeds
// the look-ahead panel), then bandTiles-wide bands — except that a remainder
// shorter than half a band folds into the final band instead of trailing as
// a sliver, because a one- or two-tile kernel sits on the wrong end of the
// efficiency s-curve. The written tiles stream through the scheduler's
// bounded window, so the widened final band costs no extra device memory.
func hybridBandWidth(nt, c0 int) int {
	if c0 == 0 {
		return 1
	}
	if m := nt - 1; m < bandTiles+bandTiles/2 {
		// Mid-size iterations: two balanced bands instead of one wide one.
		// A single band would be the graph's last band, and the prep-ahead
		// protocol stops short of the last band — one band per iteration
		// would disable look-ahead preps entirely and reintroduce the serial
		// prep head at every boundary. Two halves keep the first band's
		// tiles available for the next iteration's ahead preps; below 8
		// columns the halves fall off the efficiency s-curve faster than the
		// prep head costs, so the columns ride as one band.
		if m < bandTiles/2 {
			return m
		}
		if c0 == 1 {
			return (m + 1) / 2
		}
		return nt - c0
	}
	if rem := nt - c0; rem < bandTiles+bandTiles/2 {
		return rem
	}
	return bandTiles
}

// hybridLastBandStart returns the starting column of the final band in the
// hybrid layout over nt tile columns, walking the bands hybridBandWidth lays
// out. Look-ahead preps reading a tile this band writes would only become
// ready at the very end of the graph and serialize the iteration boundary,
// so the ahead set stops short of it on both sides of the handoff.
func hybridLastBandStart(nt int) int {
	if nt <= 1 {
		return 0
	}
	c0 := 1
	for w := hybridBandWidth(nt, c0); c0+w < nt; w = hybridBandWidth(nt, c0) {
		c0 += w
	}
	return c0
}

// Config describes one simulated Linpack run.
type Config struct {
	// N is the problem order and NB the blocking factor. NB <= 0 selects the
	// paper's value for the variant: 1216 with the GPU, 196 host-only.
	N, NB int
	// Variant selects the configuration under test.
	Variant element.Variant
	// Seed drives the element's deterministic noise.
	Seed uint64
	// Part carries the adaptive databases. Nil builds fresh databases for
	// adaptive variants (the paper's "initial version" of Fig. 9); passing a
	// trained/persisted database reproduces the second-run behaviour.
	Part adaptive.Partitioner
	// PageableLibrary marks the vendor-library configuration of the paper's
	// Linpack baseline: unmodified HPL hands the library pageable host
	// memory, so every CPU-GPU transfer pays the slow pageable path instead
	// of the pinned staging pool. The optimized variants stage through
	// pinned memory as part of the pipeline machinery.
	PageableLibrary bool
	// GPUModel optionally overrides the GPU rate model (e.g. down-clocked).
	GPUModel perfmodel.GPU
	// Telemetry receives the run's probes: the hybrid runner's counters,
	// the adaptive partitioner's GSplit/CSplit series, and live span traces
	// of every element resource. Nil disables instrumentation.
	Telemetry *telemetry.Telemetry

	// FailAts injects element failures at the given virtual times — K
	// sequential deaths in one run, each recovered independently: the run
	// loses all volatile state when its clock first passes each instant and
	// resumes DefaultRestartSec later — from the last per-iteration
	// checkpoint when Checkpoint is set, from iteration zero otherwise.
	// Instants <= 0 are ignored. ElementFail events carried by the SDC
	// injector (composed scenarios like "element-fail+sdc-single") join the
	// schedule too; see failureSchedule.
	FailAts []sim.Time
	// Checkpoint enables per-iteration checkpointing: after every iteration
	// the factored panel is written out (costing the panel's bytes at
	// CheckpointBandwidth on the critical path) so a failure redoes at most
	// one iteration.
	Checkpoint bool
	// CorruptCheckpointsAt marks the checkpoint store bad from this instant
	// on: every generation already held is poisoned when the clock first
	// passes it, and every generation written afterwards lands on the bad
	// medium and is poisoned too — corruption at rest striking the store
	// itself, not one unlucky file. The next restore finds the chain
	// exhausted (ErrCheckpointsExhausted) and Run falls back to a clean
	// restart from iteration zero. Zero disables the injection.
	CorruptCheckpointsAt sim.Time

	// Verify enables ABFT checksum verification of every trailing-update
	// task (see hybrid.Runner.EnableABFT): the verification time lands on
	// the critical path, localizable corruption is recovered by recomputing
	// just the struck task, and uncorrectable corruption marks the iteration
	// poisoned so Run redoes it from the last good checkpoint. Setting SDC
	// implies Verify.
	Verify bool
	// SDC optionally injects silent-data-corruption strikes into the GPU
	// tasks (fault.SDCKernel / fault.SDCDMA events); the same injector's
	// timing events (degraded-gpu, flaky-net layers of a composed scenario)
	// are attached to the element too. Nil injects nothing.
	SDC *fault.Injector

	// Graph routes every iteration through the taskgraph runtime instead of
	// the hybrid runner's partitioner split: the trailing update becomes a
	// tile grid of lu.gemm tasks placed per task by the affinity scheduler,
	// the U12 solve a row of lu.trsm tasks, and the panel factorization an
	// lu.panel task overlapping the update when Lookahead permits. The
	// affinity database and the ABFT task counter persist across iterations
	// (and across checkpoint restores), so the per-iteration graphs behave
	// like one long adaptive run.
	Graph bool
	// Lookahead is the graph mode's cross-iteration overlap depth: 0 books
	// the next panel bulk-synchronously after the full trailing update, >= 1
	// lets it overlap this iteration's update as soon as its own column is
	// up to date — HPL's classic look-ahead, here emerging from dataflow
	// dependencies instead of hand-rolled slot management.
	//
	// Depths beyond 1 are accepted but provably saturate at 1 in this
	// stepper: each Step builds a one-iteration graph window, and panel(k+2)
	// reads tiles that only come into existence as upd(k+1,·,·) outputs of
	// the NEXT window — it is structurally inexpressible here, so depth 2
	// schedules byte-identically to depth 1
	// (TestGraphLookaheadDepthSaturates pins this). hpl.BuildLUGraph's
	// whole-graph form expresses arbitrary depth.
	Lookahead int
	// GraphHybrid arms the graph mode's trailing-update tasks with the split
	// CPU+GPU body: each upd task may divide its rows between the device and
	// the host cores by the adaptive GSplit (the partitioner is the split
	// oracle, exactly as in the monolithic loop), and the scheduler picks
	// per task among cpu, gpu, and hybrid by earliest predicted finish.
	// Requires Graph and an adaptive (GPU-using) variant; ignored otherwise.
	GraphHybrid bool
}

// Result reports one simulated run.
type Result struct {
	N, NB      int
	Variant    element.Variant
	Seconds    float64
	GFLOPS     float64
	Iterations int
	// Part exposes the partitioner after the run (database_g holds the
	// adapted splits; Fig. 10 plots its snapshot).
	Part adaptive.Partitioner
	// Err is nil for a run that factored every column. Otherwise the run
	// stopped where an iteration could not execute — ErrStalled when the GPU
	// context died under a variant with no fallback, or the graph scheduler's
	// own error — and Stalled is set: Seconds is the instant it stopped at,
	// GFLOPS is 0.
	Err     error
	Stalled bool
	Totals
}

// Totals is the fault accounting of a whole run. It describes the run, not
// one attempt: a clean restart from iteration zero carries it over.
type Totals struct {
	// Failures counts injected element failures; RedoneIterations the
	// iterations lost and re-executed; CheckpointSeconds the total critical-
	// path time spent writing checkpoints.
	Failures          int
	RedoneIterations  int
	CheckpointSeconds float64
	// Tally is the ABFT outcome of the whole run. The counters are NOT rolled
	// back on a checkpoint restore (unlike the telemetry counters), so
	// SDCDetected always equals the injector's delivered-strike count;
	// VerifySeconds is already inside Seconds — the honest overhead of the
	// protection.
	abft.Tally
	// SDCRestores counts the checkpoint reloads escalations forced.
	SDCRestores int
}

// ErrStalled reports a run whose GPU context was lost under a variant with no
// CPU fallback: the next device submission fails, and on real hardware the
// host program aborts there.
var ErrStalled = errors.New("linpacksim: GPU context lost without an adaptive fallback")

// DefaultNB returns the paper's blocking factor for a variant.
func DefaultNB(v element.Variant) int {
	if v.UsesGPU() {
		return 1216
	}
	return 196
}

// DefaultRestartSec is the outage-plus-relaunch time charged when an
// injected element failure strikes: node reboot, process relaunch and data
// reload before the solver resumes.
const DefaultRestartSec sim.Time = 30.0

// failureSchedule merges every configured element-death instant — FailAts
// and the ElementFail events of the attached injector (composed
// scenarios layer element death onto sdc-* and lost-gpu) — into one
// ascending schedule. Nil when the run is failure-free.
func (cfg Config) failureSchedule() []sim.Time {
	var out []sim.Time
	for _, at := range cfg.FailAts {
		if at > 0 {
			out = append(out, at)
		}
	}
	for _, ev := range cfg.SDC.ElementFailures() {
		if ev.Start > 0 {
			out = append(out, ev.Start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckpointBandwidth is the byte rate of the checkpoint device (a node-
// local store). Each per-iteration checkpoint writes the iteration's
// factored panel — 8*N*NB bytes — incrementally, not the whole matrix.
const CheckpointBandwidth = 2e9

// Sim is one Linpack run as a resumable stepper: Step executes one
// iteration (panel + trailing update), and Checkpoint/Restore capture and
// reinstall the solver's restartable state between iterations. Run drives
// it start-to-finish; the ledger's fault and sdc rows (experiments.Failover,
// experiments.SDCSweep) drive it with failures injected.
type Sim struct {
	cfg    Config
	nb     int
	el     *element.Element
	part   adaptive.Partitioner
	runner *hybrid.Runner

	j      int // columns factored so far
	iters  int
	lastJB int // block width of the last completed iteration
	t      sim.Time
	err    error // why the run stopped early, nil while it can continue

	totals Totals

	// ABFT accounting (Config.Verify / Config.SDC). lastEscalated marks the
	// just-stepped iteration as carrying uncorrectable corruption: its
	// output must not be checkpointed, and Run redoes it from the last good
	// checkpoint.
	abftOn        bool
	lastEscalated bool
	integrity     *telemetry.Gauge // per-iteration integrity flag, lazy

	// Graph-mode state (Config.Graph): the scheduler carries the affinity
	// database and the ABFT task counter across iterations; panelAhead marks
	// that the next iteration's panel already ran inside the previous
	// iteration's graph (look-ahead), so the next Step must not rebook it.
	gsched     *taskgraph.Scheduler
	panelAhead bool
	// prepAhead marks that the next iteration's U-prep (trsm) tasks already
	// ran inside the previous iteration's graph (hybrid band mode books them
	// as each column band lands, filling the cores' post-slab idle windows),
	// so the next Step must not rebook them.
	prepAhead bool
	// graph is rebuilt in place by every Step; handles is the flat table its
	// l/u/tile handles are kept in, names their names, and accs the scratch
	// that long access lists (panels, bands) are assembled in before Add
	// copies them. The codelets are made once: their models read the task
	// they are handed.
	graph   *taskgraph.Graph
	handles []*taskgraph.Handle
	names   handleNames
	accs    []taskgraph.Access
	lu      hpl.LUCodelets
}

// handleNames are the graph stepper's handle names, formatted once for the
// largest tile grid a Sim has stepped — its first — and shared by every
// smaller grid after it: tile (i, c) of any grid is named t(i,c).
type handleNames struct {
	nt      int
	l, u, t []string // t is nt×nt, row-major
	uAhead  []string // the look-ahead preps' u'(c), c < prepAheadCols
}

// fit makes the names cover an nt×nt grid.
func (n *handleNames) fit(nt int) {
	if nt <= n.nt {
		return
	}
	n.nt = nt
	n.l, n.u, n.t = make([]string, nt), make([]string, nt), make([]string, nt*nt)
	for i := 0; i < nt; i++ {
		n.l[i] = taskgraph.Name("l(%d)", i)
		n.u[i] = taskgraph.Name("u(%d)", i)
		for c := 0; c < nt; c++ {
			n.t[i*nt+c] = taskgraph.Name("t(%d,%d)", i, c)
		}
	}
}

// ahead returns the name of look-ahead prep c's U block, u'(c).
func (n *handleNames) ahead(c int) string {
	if n.uAhead == nil {
		n.uAhead = make([]string, prepAheadCols)
		for i := range n.uAhead {
			n.uAhead[i] = taskgraph.Name("u'(%d)", i)
		}
	}
	return n.uAhead[c]
}

// NewSim builds the element, partitioner and runner for one run, positioned
// before the first iteration.
func NewSim(cfg Config) *Sim {
	nb := cfg.NB
	if nb <= 0 {
		nb = DefaultNB(cfg.Variant)
	}
	elCfg := element.Config{
		Seed:     cfg.Seed,
		Virtual:  true,
		GPUModel: cfg.GPUModel,
	}
	if cfg.Variant == element.CPUOnly {
		elCfg.CPUCores = perfmodel.CoresPerCPU // no comm core needed
	}
	if cfg.PageableLibrary {
		elCfg.Transfer = perfmodel.PageableTransfer()
	}
	el := element.New(elCfg)

	part := cfg.Part
	if cfg.Variant.Adaptive() && part == nil {
		part = adaptive.NewAdaptive(64, hpl.LinpackFlops(cfg.N), el.InitialGSplit(), el.CPU.NumCores())
	}
	part = adaptive.Instrument(part, cfg.Telemetry)
	runner := hybrid.New(el, cfg.Variant, part)
	if cfg.Telemetry.Enabled() {
		runner.Instrument(cfg.Telemetry)
		el.Instrument(cfg.Telemetry, fmt.Sprintf("%s.N%d", cfg.Variant, cfg.N))
	}
	s := &Sim{cfg: cfg, nb: nb, el: el, part: part, runner: runner}
	if cfg.Verify || cfg.SDC != nil {
		// The injector's timing events (composed scenarios layer SDC onto
		// degraded-gpu and the like) hook the element; the corruption
		// strikes flow through the runner's ABFT verification — or the
		// graph scheduler's, in graph mode.
		fault.Attach(cfg.SDC, el)
		if !cfg.Graph {
			runner.EnableABFT(cfg.SDC)
			// Composed scenarios can layer full device loss (lost-gpu) onto
			// the corruption schedule; an adaptive runner arms the CPU
			// fallback so the loss degrades instead of stalling the run.
			if cfg.Variant.Adaptive() {
				runner.EnableGPUFaultFallback()
			}
		}
		s.abftOn = true
	}
	if cfg.Graph {
		s.gsched = taskgraph.NewScheduler(el, taskgraph.Options{
			Telemetry:   cfg.Telemetry,
			Verify:      s.abftOn,
			SDC:         cfg.SDC,
			GPUFallback: cfg.Variant.Adaptive(),
			RateSeeds:   hpl.GraphRateSeeds(el, nb),
		})
		s.graph = taskgraph.New()
		s.lu = hpl.NewLUCodelets(el)
		if !cfg.Variant.UsesGPU() {
			s.lu.Gemm.GPUSeconds = nil
		}
		if s.bandMode() {
			s.lu.Gemm.Hybrid = &taskgraph.Hybrid{Part: part, FillSkew: true}
		}
		// The monolithic pipeline's convention is that each iteration's
		// host-side factor+prep overlaps the update it feeds — including
		// the very first, whose panel factors while problem setup (matrix
		// generation) completes. Graph mode reproduces that convention at
		// the pipeline head: with look-ahead the first panel (and in band
		// mode, the leading U-preps) count as setup work, so graph 0 opens
		// the same way every later graph does — against an already-factored
		// panel. Without look-ahead every panel is serial, the bulk-
		// synchronous behavior depth 0 exists to show.
		if cfg.Lookahead >= 1 {
			s.panelAhead = true
			s.prepAhead = s.bandMode()
		}
	}
	return s
}

// bandMode reports whether graph steps book the trailing update as column
// bands with the split CPU+GPU body.
func (s *Sim) bandMode() bool {
	return s.cfg.GraphHybrid && s.cfg.Variant.UsesGPU() && s.part != nil
}

// Done reports whether every column has been factored.
func (s *Sim) Done() bool { return s.j >= s.cfg.N }

// Time returns the run's virtual clock.
func (s *Sim) Time() sim.Time { return s.t }

// Element returns the compute element the run executes on.
func (s *Sim) Element() *element.Element { return s.el }

// Err reports why the run cannot continue: nil while it can, ErrStalled or
// the graph scheduler's error once an iteration failed to execute.
func (s *Sim) Err() error { return s.err }

// Step executes one Linpack iteration. It panics once Done or after Err. An
// iteration that cannot execute — the device submission stalls on a dead GPU
// context, or the graph scheduler rejects the iteration's graph — leaves the
// loop position where it was, the clock at the instant it stopped, and sets
// Err.
func (s *Sim) Step() {
	if s.Done() {
		panic("linpacksim: step past the last iteration")
	}
	if s.err != nil {
		panic("linpacksim: step after the run stopped: " + s.err.Error())
	}
	j := s.j
	jb := min(s.nb, s.cfg.N-j)
	trailing := s.cfg.N - j - jb
	s.iters++
	s.lastEscalated = false

	if s.cfg.Graph {
		if s.err = s.stepGraph(j, jb, trailing); s.err == nil {
			s.j = j + jb
			s.lastJB = jb
		}
		return
	}

	// Panel factorization of the (trailing+jb) x jb panel plus the U12
	// triangular solve, both on the host. With look-ahead they overlap
	// the trailing update of this iteration, so only their excess over
	// the update lands on the critical path.
	panelFlops := float64(jb) * float64(jb) * (float64(trailing) + float64(jb)/3)
	trsmFlops := float64(jb) * float64(jb) * float64(trailing)
	hostSide := s.t + panelFlops/(perfmodel.HostPanelGFLOPS*1e9) + trsmFlops/(perfmodel.HostTrsmGFLOPS*1e9)

	if trailing > 0 {
		rep := s.runner.GemmVirtual(trailing, trailing, jb, 1, s.t)
		if rep.Stalled {
			s.err = ErrStalled
			return
		}
		s.t = rep.End
		s.noteABFT(rep.Tally)
	}
	if hostSide > s.t {
		s.t = hostSide
	}
	s.j = j + jb
	s.lastJB = jb
}

// noteABFT folds one iteration's ABFT outcome into the run totals and the
// integrity gauge.
func (s *Sim) noteABFT(t abft.Tally) {
	if !s.abftOn {
		return
	}
	s.totals.Tally.Add(t)
	s.lastEscalated = t.SDCEscalated > 0
	if s.cfg.Telemetry.Enabled() {
		if s.integrity == nil {
			s.integrity = s.cfg.Telemetry.Gauge("linpacksim.integrity")
		}
		// 1 = the iteration's output is trustworthy (clean, or every
		// strike recomputed away); 0 = poisoned pending a restore.
		if s.lastEscalated {
			s.integrity.Set(0)
		} else {
			s.integrity.Set(1)
		}
	}
}

// stepGraph executes one iteration as a task graph: the U12 solve tiled into
// lu.trsm tasks, the trailing update into an r×c grid of lu.gemm tasks, and
// — with look-ahead — the next iteration's panel factorization as an
// lu.panel task that becomes ready as soon as its own column block is up to
// date, overlapping the rest of the update. The scheduler places every task
// on the device predicted to finish it first, blending the static models
// with the rates measured over previous iterations. A graph the scheduler
// rejects, or one that stalls on a dead GPU context, is the returned error.
// Every iteration rebuilds the Sim's one graph in place and runs it on the
// Sim's one Scheduler: each graph is the last one minus a tile row and
// column, and the handle names are the first iteration's, so after the first
// an iteration allocates only its task names.
func (s *Sim) stepGraph(j, jb, trailing int) error {
	st := s.newGraphStep(j, jb, trailing)
	st.addPanelAndPreps()
	if st.hybrid {
		st.addBandUpdates()
	} else {
		st.addTileUpdates()
	}
	st.addLookahead()

	if st.g.Len() == 0 {
		return nil
	}
	rep, err := s.gsched.Run(st.g, s.t)
	if err != nil {
		return fmt.Errorf("linpacksim: graph iteration %d: %w", st.k, err)
	}
	s.t = rep.End
	if rep.Stalled {
		return ErrStalled
	}
	s.noteABFT(rep.Tally)
	return nil
}

// graphStep is one iteration's graph under construction: its geometry and
// its handles, which are windows into the Sim's flat handle table, named from
// the Sim's name table.
type graphStep struct {
	s *Sim
	g *taskgraph.Graph
	// k is the block-column index (for trace labels), jb the panel width,
	// trailing the order of the trailing matrix and nt its tile count.
	k, jb, trailing, nt int
	// hybrid selects column bands with the split CPU+GPU body over the
	// nt×nt tile grid.
	hybrid bool

	piv    *taskgraph.Handle
	ls, us []*taskgraph.Handle // L21 row blocks and U12 column blocks
	ts     []*taskgraph.Handle // trailing tiles, row-major nt×nt
}

// tw is the width of tile row or column i of the trailing grid.
func (st *graphStep) tw(i int) int { return min(st.s.nb, st.trailing-i*st.s.nb) }

func (st *graphStep) tile(r, c int) *taskgraph.Handle { return st.ts[r*st.nt+c] }

// newGraphStep empties the Sim's graph and registers the iteration's handles.
func (s *Sim) newGraphStep(j, jb, trailing int) graphStep {
	nt := (trailing + s.nb - 1) / s.nb
	if n := 2*nt + nt*nt; cap(s.handles) < n {
		s.handles = make([]*taskgraph.Handle, n)
	}
	g := s.graph
	g.Reset()
	st := graphStep{
		s: s, g: g, k: j / s.nb, jb: jb, trailing: trailing, nt: nt,
		hybrid: s.bandMode(),
		ls:     s.handles[:nt], us: s.handles[nt : 2*nt], ts: s.handles[2*nt : 2*nt+nt*nt],
	}
	s.names.fit(nt)
	names := &s.names
	st.piv = g.NewHandle("piv", 8*int64(jb))
	for i := 0; i < nt; i++ {
		st.ls[i] = g.NewHandle(names.l[i], 8*int64(st.tw(i))*int64(jb))
		st.us[i] = g.NewHandle(names.u[i], 8*int64(jb)*int64(st.tw(i)))
		for c := 0; c < nt; c++ {
			st.ts[i*nt+c] = g.NewHandle(names.t[i*names.nt+c], 8*int64(st.tw(i))*int64(st.tw(c)))
		}
	}
	return st
}

// addPanel books the recursive factorization of the height×width panel.
func (st *graphStep) addPanel(k, height, width int, accs []taskgraph.Access) {
	st.g.Add(taskgraph.Task{
		Name: taskgraph.Name("panel(%d)", k), Codelet: st.s.lu.Panel, Priority: 3,
		Flops: hpl.PanelFlops(height, width),
	}, accs...)
}

// addPrep books the U12 triangular solve of one cw-wide column block against
// a jb-wide panel. It carries no Shape, so lu.trsm prices the solve alone.
func (st *graphStep) addPrep(k, c, jb, cw int, accs ...taskgraph.Access) {
	st.g.Add(taskgraph.Task{
		Name: taskgraph.Name("prep(%d,%d)", k, c), Codelet: st.s.lu.Trsm, Priority: 2,
		Flops: float64(jb) * float64(jb) * float64(cw),
	}, accs...)
}

// addPanelAndPreps books what the previous graph's look-ahead did not already
// run: this iteration's panel, and the trsm prep of every column past the
// ahead set.
func (st *graphStep) addPanelAndPreps() {
	s, nt := st.s, st.nt
	if !s.panelAhead {
		// This iteration's panel was not factored by the previous graph:
		// book it first, feeding the pivots and the L21 row blocks.
		accs := append(s.accs[:0], taskgraph.Access{H: st.piv, Mode: taskgraph.Write})
		for r := 0; r < nt; r++ {
			accs = append(accs, taskgraph.Access{H: st.ls[r], Mode: taskgraph.Write})
		}
		s.accs = accs
		st.addPanel(st.k, st.trailing+st.jb, st.jb, accs)
	}

	// Columns whose trsm prep the previous graph already ran (look-ahead
	// preps): only the head of the band sequence — the columns the first
	// bands consume as soon as the graph opens. Preps for later bands run
	// in this graph, overlapped with the leading bands' compute, so they
	// never serialize at the previous iteration's boundary.
	prepDone := 0
	if s.prepAhead {
		// Mirrors the ahead-set bound the previous graph used (its tile count
		// was nt+1), so the two graphs agree on the handoff without any state
		// beyond the flag.
		prepDone = max(0, min(nt, prepAheadCols, hybridLastBandStart(nt+1)-1))
	}
	for c := prepDone; c < nt; c++ {
		st.addPrep(st.k, c, st.jb, st.tw(c),
			taskgraph.Access{H: st.piv, Mode: taskgraph.Read},
			taskgraph.Access{H: st.us[c], Mode: taskgraph.Write})
	}
}

// addTileUpdates books the trailing update as an nt×nt grid of lu.gemm tile
// tasks, column by column.
func (st *graphStep) addTileUpdates() {
	for c := 0; c < st.nt; c++ {
		cw := st.tw(c)
		for r := 0; r < st.nt; r++ {
			rh := st.tw(r)
			st.g.Add(taskgraph.Task{
				Name: taskgraph.Name("upd(%d,%d,%d)", st.k, r, c), Codelet: st.s.lu.Gemm,
				Flops: 2 * float64(rh) * float64(cw) * float64(st.jb),
				Shape: [3]int{rh, cw, st.jb}, Rows: rh,
			},
				taskgraph.Access{H: st.ls[r], Mode: taskgraph.Read},
				taskgraph.Access{H: st.us[c], Mode: taskgraph.Read},
				taskgraph.Access{H: st.tile(r, c), Mode: taskgraph.ReadWrite})
		}
	}
}

// addBandUpdates books the trailing update as column bands instead of an
// nt×nt tile grid. Column block 0 rides alone (and first) so the look-ahead
// panel becomes ready as early as possible; the rest merge into wide bands
// whose kernels amortize the efficiency s-curve the way the monolithic
// pipeline's big tiles do — per-tile kernels cap the device ~15% below its
// wide-kernel rate, which is exactly the gap this variant closes. Each band
// splits its rows between the device and the host cores by the adaptive
// GSplit; the band's written tiles stream through the scheduler's bounded
// window, so device memory never bounds the band width.
func (st *graphStep) addBandUpdates() {
	s, nt := st.s, st.nt
	for c0 := 0; c0 < nt; {
		w := hybridBandWidth(nt, c0)
		bandN := 0
		for c := c0; c < c0+w; c++ {
			bandN += st.tw(c)
		}
		accs := s.accs[:0]
		for r := 0; r < nt; r++ {
			accs = append(accs, taskgraph.Access{H: st.ls[r], Mode: taskgraph.Read})
		}
		for c := c0; c < c0+w; c++ {
			accs = append(accs, taskgraph.Access{H: st.us[c], Mode: taskgraph.Read})
		}
		for c := c0; c < c0+w; c++ {
			for r := 0; r < nt; r++ {
				accs = append(accs, taskgraph.Access{H: st.tile(r, c), Mode: taskgraph.ReadWrite})
			}
		}
		s.accs = accs
		rows, bn, jb := st.trailing, bandN, st.jb
		pri := 0
		if c0 == 0 {
			pri = 1 // feeds the look-ahead panel
		}
		st.g.Add(taskgraph.Task{
			Name: taskgraph.Name("upd(%d,%d:%d)", st.k, c0, c0+w), Codelet: s.lu.Gemm,
			Flops: 2 * float64(rows) * float64(bn) * float64(jb),
			Shape: [3]int{rows, bn, jb}, Rows: rows, Priority: pri,
		}, accs...)
		c0 += w
	}
}

// addLookahead books, at depth >= 1, the next iteration's panel — and in band
// mode its leading trsm preps — inside this graph, and records on the Sim
// what the next Step therefore must not rebook.
func (st *graphStep) addLookahead() {
	s, nt, trailing := st.s, st.nt, st.trailing
	s.panelAhead = false
	s.prepAhead = false
	if s.cfg.Lookahead < 1 || trailing <= 0 {
		return
	}
	// The next panel factors column block 0 of the updated trailing
	// matrix: its ReadWrite accesses make it ready the moment upd(·,·,0)
	// finishes, so it overlaps the remaining column blocks' updates.
	accs := s.accs[:0]
	for r := 0; r < nt; r++ {
		accs = append(accs, taskgraph.Access{H: st.tile(r, 0), Mode: taskgraph.ReadWrite})
	}
	jbNext := min(s.nb, trailing)
	trailingNext := trailing - jbNext
	// In band mode the next iteration's leading U-preps ride along too
	// (the prepAheadCols columns its first bands consume at open): each
	// becomes ready the moment the band holding its column lands, so the
	// cores fill their post-slab idle windows with them and the device
	// starts the next iteration's bands without the prep stall that
	// otherwise serializes every iteration boundary.
	prepNext := st.hybrid && trailingNext > 0 && nt >= 2
	var piv2 *taskgraph.Handle
	if prepNext {
		piv2 = st.g.NewHandle("piv'", 8*int64(jbNext))
		accs = append(accs, taskgraph.Access{H: piv2, Mode: taskgraph.Write})
	}
	s.accs = accs
	st.addPanel(st.k+1, trailing, jbNext, accs)
	s.panelAhead = true
	if !prepNext {
		return
	}
	ntNext := (trailingNext + s.nb - 1) / s.nb
	aheadN := max(0, min(ntNext, prepAheadCols, hybridLastBandStart(nt)-1))
	for c := 0; c < aheadN; c++ {
		cw := min(s.nb, trailingNext-c*s.nb)
		st.addPrep(st.k+1, c, jbNext, cw,
			taskgraph.Access{H: piv2, Mode: taskgraph.Read},
			// The column's top tile after this iteration's update — the
			// data the next trsm solves against.
			taskgraph.Access{H: st.tile(1, c+1), Mode: taskgraph.Read},
			taskgraph.Access{H: st.g.NewHandle(s.names.ahead(c), 8*int64(jbNext)*int64(cw)), Mode: taskgraph.Write})
	}
	s.prepAhead = true
}

// Escalated reports whether the last Step hit uncorrectable corruption: its
// results are poisoned and must be rolled back, not checkpointed.
func (s *Sim) Escalated() bool { return s.lastEscalated }

// Skip advances the run's clock (and every resource) to at least tm without
// doing work — the failure path uses it to charge the outage and restart.
func (s *Sim) Skip(tm sim.Time) {
	if tm <= s.t {
		return
	}
	s.t = tm
	for _, tl := range s.el.Timelines() {
		tl.AdvanceTo(tm)
	}
}

// Result reports the run so far (normally called once Done).
func (s *Sim) Result() Result {
	res := Result{
		N: s.cfg.N, NB: s.nb, Variant: s.cfg.Variant,
		Seconds: s.t, Iterations: s.iters, Part: s.part,
		Err: s.err, Stalled: s.err != nil, Totals: s.totals,
	}
	if !res.Stalled {
		res.GFLOPS = hpl.LinpackFlops(s.cfg.N) / s.t / 1e9
	}
	return res
}

// Run simulates one Linpack execution and returns its timing. Element
// failures (FailAts, or ElementFail events on the SDC injector)
// strike when the clock first passes each scheduled instant: the run
// restores from the last checkpoint (Checkpoint true) or restarts from
// iteration zero, resumes DefaultRestartSec after the failure, and the lost
// iterations are re-executed. When every checkpoint generation is itself
// corrupt (ErrCheckpointsExhausted), the run falls back to a clean restart
// from iteration zero instead of aborting — forward progress degrades, it
// never stops.
func Run(cfg Config) Result {
	s := NewSim(cfg)
	fails := cfg.failureSchedule()
	nextFail := 0
	// cps keeps the two newest good checkpoints (plus the empty initial
	// state): escalated corruption restores the newest one that still
	// verifies, falling back a generation if the newest is itself corrupt.
	cps := []*Checkpoint{s.Checkpoint()}
	corrupted := false
	// poison breaks a checkpoint's seal once the store has gone bad, so
	// generations written onto the corrupt medium are as dead as the ones
	// struck in place.
	poison := func(cp *Checkpoint) *Checkpoint {
		if corrupted {
			cp.Sum ^= 0xdead
		}
		return cp
	}
	// cleanRestart is the checkpoint-exhaustion fallback: a fresh stepper
	// from iteration zero carrying the run's accounting, resuming at the
	// given clock.
	cleanRestart := func(resume sim.Time, lost int) {
		totals := s.totals
		s = NewSim(cfg)
		s.totals = totals
		s.totals.RedoneIterations += lost
		s.Skip(resume)
		cps = []*Checkpoint{poison(s.Checkpoint())}
	}
	for !s.Done() {
		s.Step()
		if s.Err() != nil {
			break
		}
		if cfg.CorruptCheckpointsAt > 0 && !corrupted && s.t > cfg.CorruptCheckpointsAt {
			// At-rest corruption strikes the checkpoint store: every held
			// generation's seal no longer matches its contents.
			corrupted = true
			for _, cp := range cps {
				cp.Sum ^= 0xdead
			}
		}
		if s.Escalated() {
			// Uncorrectable corruption (multi-element, or a checksum row
			// hit): the iteration's output cannot be trusted and task-level
			// recomputation cannot repair it. Reload the newest good
			// checkpoint and redo the iteration. The wall-clock never moves
			// backward — the reload cost is charged on top of the time the
			// poisoned attempt already burned, which is what makes the
			// escalation path expensive and the ≥90%-corrected target
			// meaningful.
			now := s.t
			lost := s.iters
			cpIdx, err := s.RestoreNewest(cps)
			switch {
			case err == nil:
				sec := 8 * float64(s.cfg.N) * float64(s.lastJB) / CheckpointBandwidth
				s.totals.RedoneIterations += lost - s.iters
				s.Skip(now + sec)
				cps = cps[:cpIdx+1]
			case errors.Is(err, ErrCheckpointsExhausted):
				cleanRestart(now+DefaultRestartSec, lost)
			default:
				panic(fmt.Sprintf("linpacksim: escalation restore: %v", err))
			}
			s.totals.SDCRestores++
			if s.totals.SDCRestores > 100*s.cfg.N/s.nb+100 {
				panic("linpacksim: SDC escalations never drain — injected corruption outpaces recovery")
			}
			continue
		}
		if nextFail < len(fails) && s.t > fails[nextFail] {
			// The element died; everything past the last checkpoint is
			// lost, including the iteration just simulated.
			at := fails[nextFail]
			nextFail++
			lost := s.iters
			_, err := s.RestoreNewest(cps)
			switch {
			case err == nil:
				s.totals.RedoneIterations += lost - s.iters
				s.Skip(at + DefaultRestartSec)
			case errors.Is(err, ErrCheckpointsExhausted):
				cleanRestart(at+DefaultRestartSec, lost)
			default:
				panic(fmt.Sprintf("linpacksim: failover restore: %v", err))
			}
			s.totals.Failures++
			continue
		}
		if cfg.Checkpoint && !s.Done() {
			// The incremental checkpoint (this iteration's factored panel)
			// is written out before the next panel starts.
			sec := 8 * float64(s.cfg.N) * float64(s.lastJB) / CheckpointBandwidth
			s.totals.CheckpointSeconds += sec
			s.Skip(s.t + sec)
			cps = append(cps, poison(s.Checkpoint()))
			if len(cps) > 3 {
				cps = cps[len(cps)-3:]
			}
		}
	}
	return s.Result()
}
