package taskgraph

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
)

// fixedSplit is a split oracle that always answers split, unclamped —
// adaptive.NewStatic clamps to [0.02, 0.995], and the degenerate-split test
// needs fractions outside that — and records every observation it is fed.
type fixedSplit struct {
	split float64
	obs   []adaptive.Observation
}

func (f *fixedSplit) Name() string                    { return "fixed" }
func (f *fixedSplit) GSplit(float64) float64          { return f.split }
func (f *fixedSplit) CSplits(dst []float64) []float64 { return dst[:0] }

// Observe keeps a copy of the level-2 slices: the scheduler lends its own.
func (f *fixedSplit) Observe(o adaptive.Observation) {
	o.CoreWorks, o.CoreTimes = slices.Clone(o.CoreWorks), slices.Clone(o.CoreTimes)
	f.obs = append(f.obs, o)
}

// hybCodelet returns a GEMM-like codelet whose hybrid body splits rows at the
// given fraction, equally across the usable cores. A whole task costs
// cpuSec/gpuSec; both halves scale linearly with their row share (the CPU
// model is per-core, so an equal three-core split finishes in a third of the
// slab time).
func hybCodelet(split, cpuSec, gpuSec float64) *Codelet {
	return &Codelet{Name: "hgemm",
		CPUSeconds: func(t *Task, rows int) float64 { return cpuSec * float64(rows) / float64(t.Rows) },
		GPUSeconds: func(t *Task, rows int) float64 { return gpuSec * float64(rows) / float64(t.Rows) },
		Hybrid:     &Hybrid{Part: &fixedSplit{split: split}, EqualShares: true},
	}
}

// hybTask builds a rows-high task of its own hybCodelet.
func hybTask(name string, rows int, split, cpuSec, gpuSec float64) Task {
	return Task{Name: name, Codelet: hybCodelet(split, cpuSec, gpuSec), Flops: 1e9, Rows: rows}
}

func TestHybridVariantWinsAndSplits(t *testing.T) {
	// A dependent chain — the case task-level parallelism cannot help, and
	// exactly where the monolithic loop's intra-update split beats a
	// whole-device graph: each hybrid task splits half its rows onto the
	// device and half across the three cores, so its join beats both
	// whole-device bodies.
	run := func(hybrid bool) Report {
		el := testElement(7)
		sch := NewScheduler(el, Options{})
		g := New()
		h := g.NewHandle("t", 1<<20)
		for i := 0; i < 6; i++ {
			tk := hybTask(fmt.Sprintf("upd%d", i), 300, 0.5, 3.0, 1.0)
			if !hybrid {
				pure := *tk.Codelet
				pure.Hybrid = nil
				tk.Codelet = &pure
			}
			g.Add(tk, Access{h, ReadWrite})
		}
		rep, err := sch.Run(g, 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	hyb, pure := run(true), run(false)
	if hyb.TasksHyb != 6 {
		t.Fatalf("TasksHyb = %d, want 6 (every task hybrid-favored)", hyb.TasksHyb)
	}
	for _, ts := range hyb.TaskSpans {
		if !strings.HasPrefix(ts.Device, "hyb(g150") {
			t.Errorf("task %s placed on %q, want hyb(g150) (half of 300 rows)", ts.Name, ts.Device)
		}
	}
	if hyb.Seconds() >= pure.Seconds() {
		t.Errorf("hybrid makespan %.3fs not better than whole-device %.3fs",
			hyb.Seconds(), pure.Seconds())
	}
	// The join downloaded the device's row share of every written tile.
	if hyb.BytesOut == 0 {
		t.Error("hybrid joins booked no write-back")
	}
}

func TestHybridDegenerateSplitFallsBackToWholeDevice(t *testing.T) {
	el := testElement(9)
	sch := NewScheduler(el, Options{})
	g := New()
	a := g.NewHandle("a", 1<<20)
	b := g.NewHandle("b", 1<<20)
	// Splits that round to 0 or all rows leave only the whole-device bodies.
	g.Add(hybTask("allgpu", 300, 0.9999, 3.0, 1.0), Access{a, ReadWrite})
	g.Add(hybTask("allcpu", 300, 0.0001, 1.0, 3.0), Access{b, ReadWrite})
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksHyb != 0 {
		t.Fatalf("TasksHyb = %d, want 0 for degenerate splits", rep.TasksHyb)
	}
	ag, _ := rep.Span("allgpu")
	ac, _ := rep.Span("allcpu")
	if ag.Device != "gpu" {
		t.Errorf("allgpu placed on %q, want gpu", ag.Device)
	}
	if !strings.HasPrefix(ac.Device, "cpu") {
		t.Errorf("allcpu placed on %q, want a cpu core", ac.Device)
	}
}

func TestHybridObserveFeedsSplitOracle(t *testing.T) {
	el := testElement(13)
	sch := NewScheduler(el, Options{})
	g := New()
	h := g.NewHandle("h", 1<<20)
	tk := hybTask("upd", 200, 0.5, 3.0, 1.0)
	oracle := tk.Codelet.Hybrid.Part.(*fixedSplit)
	g.Add(tk, Access{h, ReadWrite})
	if _, err := sch.Run(g, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(oracle.obs) != 1 {
		t.Fatalf("Observe called %d times, want 1", len(oracle.obs))
	}
	o := oracle.obs[0]
	if o.Work != tk.Flops {
		t.Errorf("observed work = %v, want the task's %v flops", o.Work, tk.Flops)
	}
	gotSplit, gotTG, gotTC, gotWorks, gotTimes := o.GSplit, o.TG, o.TC, o.CoreWorks, o.CoreTimes
	if gotSplit != 0.5 {
		t.Errorf("observed gsplit = %v, want 0.5", gotSplit)
	}
	if gotTG <= 0 || gotTC <= 0 {
		t.Errorf("observed durations tg=%v tc=%v, want both positive", gotTG, gotTC)
	}
	if len(gotWorks) == 0 || len(gotWorks) != len(gotTimes) {
		t.Fatalf("level-2 feedback vectors: works=%v times=%v, want matching non-empty", gotWorks, gotTimes)
	}
	for i := range gotWorks {
		if (gotWorks[i] > 0) != (gotTimes[i] > 0) {
			t.Errorf("core %d feedback mismatch: work=%v time=%v", i, gotWorks[i], gotTimes[i])
		}
	}
	// The hybrid class learned a rate, ready for checkpoint round-trips.
	blob, err := json.Marshal(sch.Rates())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"hyb":{"hgemm"`) {
		t.Errorf("serialized affinity database misses the hybrid class: %s", blob)
	}
	var back RateDB
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.EstimateClass("hgemm", ClassHyb, 1e9, 9),
		sch.Rates().EstimateClass("hgemm", ClassHyb, 1e9, 9); got != want {
		t.Errorf("hybrid estimate after round-trip = %v, want %v", got, want)
	}
}

func TestHybridLostGPUDegradesToCPUAndRecovers(t *testing.T) {
	el := testElement(21)
	in, err := fault.NewScenario("lost-gpu", 20, 21) // loss window [7, 12)
	if err != nil {
		t.Fatal(err)
	}
	fault.Attach(in, el)
	sch := NewScheduler(el, Options{GPUFallback: true})
	g := New()
	h := g.NewHandle("h", 1<<20)
	for i := 0; i < 24; i++ {
		g.Add(hybTask(fmt.Sprintf("t%02d", i), 300, 0.5, 3.0, 1.0), Access{h, ReadWrite})
	}
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Stalled {
		t.Fatal("hybrid chain stalled on the dead context")
	}
	if len(rep.TaskSpans) != 24 {
		t.Fatalf("scheduled %d tasks, want 24", len(rep.TaskSpans))
	}
	if rep.TasksCPU == 0 {
		t.Error("no hybrid task degraded to its CPU body during the outage")
	}
	if rep.TasksHyb == 0 {
		t.Error("no task ran its hybrid body at all")
	}
	for _, ts := range rep.TaskSpans {
		if ts.Device == "gpu" && ts.Start >= 7 && ts.Start < 12 {
			t.Errorf("task %s booked on the dead device at %v", ts.Name, ts.Start)
		}
	}
	last := rep.TaskSpans[len(rep.TaskSpans)-1]
	if !strings.HasPrefix(last.Device, "hyb(") {
		t.Errorf("final task placed on %q, want the hybrid body back after recovery", last.Device)
	}
	if sch.Rates().Quarantined() {
		t.Error("affinity database still quarantined after recovery")
	}
}

func TestHybridVerifyCoversBothHalves(t *testing.T) {
	el := testElement(17)
	sch := NewScheduler(el, Options{Verify: true})
	g := New()
	h := g.NewHandle("h", 1<<20)
	tk := hybTask("upd", 512, 0.5, 3.0, 1.0)
	tk.Shape = [3]int{512, 384, 256}
	g.Add(tk, Access{h, ReadWrite})
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksHyb != 1 {
		t.Fatalf("TasksHyb = %d, want 1", rep.TasksHyb)
	}
	want := abft.VerifySeconds(256, 384, 256) + abft.VerifySeconds(256, 384, 256)
	if rep.VerifySeconds != want {
		t.Errorf("VerifySeconds = %v, want %v (both 256-row halves checked)", rep.VerifySeconds, want)
	}
	if sch.TaskSeq() != 1 {
		t.Errorf("TaskSeq = %d, want 1 (a split task consumes one strike slot)", sch.TaskSeq())
	}
}

func TestHybridSDCStrikesResolveDeterministically(t *testing.T) {
	run := func() Report {
		el := testElement(33)
		in, err := fault.NewScenario("sdc-single", 10, 33)
		if err != nil {
			t.Fatal(err)
		}
		sch := NewScheduler(el, Options{Verify: true, SDC: in})
		g := New()
		h := g.NewHandle("h", 1<<20)
		for i := 0; i < 40; i++ {
			tk := hybTask(fmt.Sprintf("k%02d", i), 512, 0.5, 3.0, 1.0)
			tk.Shape = [3]int{512, 512, 512}
			g.Add(tk, Access{h, ReadWrite})
		}
		rep, err := sch.Run(g, 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	rep := run()
	if rep.SDCDetected == 0 {
		t.Fatal("no strike detected across 40 verified hybrid tasks")
	}
	if rep.SDCDetected != rep.SDCCorrected+rep.SDCEscalated {
		t.Errorf("detected %d != corrected %d + escalated %d",
			rep.SDCDetected, rep.SDCCorrected, rep.SDCEscalated)
	}
	if rep.SDCCorrected != rep.RecomputedTasks {
		t.Errorf("corrected %d != recomputed %d", rep.SDCCorrected, rep.RecomputedTasks)
	}
	rep2 := run()
	if rep.SDCDetected != rep2.SDCDetected || rep.SDCEscalated != rep2.SDCEscalated {
		t.Errorf("strike outcomes not reproducible: %d/%d vs %d/%d",
			rep.SDCDetected, rep.SDCEscalated, rep2.SDCDetected, rep2.SDCEscalated)
	}
}

// TestHybridResidencyAccounting pins the dual-device byte accounting: a tile
// touched from both devices is charged to the working-set guard exactly once
// and exactly as long as it occupies device memory, a device-dirty tile is
// written back whole before the host half starts, and the join streams back
// only the device's row share.
func TestHybridResidencyAccounting(t *testing.T) {
	const tile = int64(1 << 20)
	el := testElement(19)
	sch := NewScheduler(el, Options{})
	g := New()
	h := g.NewHandle("tile", tile)
	out := g.NewHandle("out", 64)
	// 1: whole-GPU write leaves the tile device-dirty.
	g.Add(Task{Name: "init", Codelet: gpuOnly("init", 0.1), Flops: 1e9}, []Access{{h, Write}}...)
	// 2: hybrid update of the same tile: the host half needs the device's
	// newer values (whole write-back), the device half reads its rows in
	// place (no upload), and the join downloads exactly the device share.
	g.Add(hybTask("upd", 256, 0.5, 3.0, 1.0), Access{h, ReadWrite})
	// 3: a whole-GPU reader re-uploads the tile: the host became
	// authoritative at the hybrid join, so the stale device copy must be gone.
	g.Add(Task{Name: "read", Codelet: gpuOnly("read", 0.1), Flops: 1e9}, []Access{{h, Read}, {out, Write}}...)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	upd, _ := rep.Span("upd")
	if !strings.HasPrefix(upd.Device, "hyb(g128") {
		t.Fatalf("upd placed on %q, want hyb(g128)", upd.Device)
	}
	// In: only the final reader's re-upload.
	if rep.BytesIn != tile {
		t.Errorf("BytesIn = %d, want %d (one whole re-upload after the join)", rep.BytesIn, tile)
	}
	// Out: the dirty write-back (whole) + the join's device share (half) +
	// the final drain of the 64-byte output.
	if want := tile + tile/2 + 64; rep.BytesOut != want {
		t.Errorf("BytesOut = %d, want %d", rep.BytesOut, want)
	}
	// Skipped: the hybrid device half read its row share from residency.
	if want := tile / 2; rep.BytesSkipped != want {
		t.Errorf("BytesSkipped = %d, want %d", rep.BytesSkipped, want)
	}
}

// TestHybridWorkingSetNoDoubleCountNoLeak drives the guard itself: a hybrid
// update of a tile already resident must not charge a second copy, and the
// transient row shares of many hybrid tasks must be released at each join —
// either bug overflows a device memory sized to just fit and panics.
func TestHybridWorkingSetNoDoubleCountNoLeak(t *testing.T) {
	const tile = int64(1 << 20)
	el := element.New(element.Config{Seed: 23, Virtual: true, GPUMem: tile + 8192})
	sch := NewScheduler(el, Options{})
	g := New()
	h := g.NewHandle("tile", tile)
	out := g.NewHandle("out", 64)
	// Make the tile resident and clean via a whole-GPU read.
	g.Add(Task{Name: "warm", Codelet: gpuOnly("warm", 0.1), Flops: 1e9}, []Access{{h, Read}, {out, Write}}...)
	// Repeated hybrid updates: each holds the resident copy (once) during
	// its booking and releases its transient share at the join. Leaked
	// shares of tile/2 bytes would overflow after two tasks.
	for i := 0; i < 8; i++ {
		g.Add(hybTask(fmt.Sprintf("upd%d", i), 256, 0.5, 3.0, 1.0), Access{h, ReadWrite})
	}
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TasksHyb != 8 {
		t.Errorf("TasksHyb = %d, want 8", rep.TasksHyb)
	}
}

// TestHybridTransientEvictsColdResidents: when the held device share of a
// hybrid task (small enough to stay under the stream window) does not fit
// next to cached tiles, the LRU resident is evicted — and a later reader pays
// the re-upload.
func TestHybridTransientEvictsColdResidents(t *testing.T) {
	const cached = int64(900 << 10) // resident read crowding the device
	const big = int64(400 << 10)    // hybrid tile: 200 KiB held device share
	el := element.New(element.Config{Seed: 29, Virtual: true, GPUMem: 1 << 20})
	sch := NewScheduler(el, Options{})
	g := New()
	a := g.NewHandle("a", cached)
	b := g.NewHandle("b", big)
	o1 := g.NewHandle("o1", 64)
	o2 := g.NewHandle("o2", 64)
	g.Add(Task{Name: "r1", Codelet: gpuOnly("r", 0.1), Flops: 1e9}, []Access{{a, Read}, {o1, Write}}...)
	g.Add(hybTask("upd", 256, 0.5, 3.0, 1.0), Access{b, ReadWrite})
	g.Add(Task{Name: "r2", Codelet: gpuOnly("r", 0.1), Flops: 1e9}, []Access{{a, Read}, {o2, Write}}...)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	upd, _ := rep.Span("upd")
	if !strings.HasPrefix(upd.Device, "hyb(") {
		t.Fatalf("upd placed on %q, want hybrid", upd.Device)
	}
	// "a" uploaded twice: once for r1, once for r2 after the hybrid task's
	// device share evicted it. The hybrid share itself uploads big/2.
	if want := 2*cached + big/2; rep.BytesIn != want {
		t.Errorf("BytesIn = %d, want %d (eviction forced a re-upload)", rep.BytesIn, want)
	}
}

// TestOversizedWrittenSetsStream pins the streaming semantics: a task whose
// written working set cannot fit on the device streams it through the bounded
// double-buffered window — whole-GPU and hybrid placements alike — instead of
// panicking the working-set guard. Only the window is charged while the task
// runs, the host copy stays authoritative afterwards (nothing dirty to
// drain), and the task ends no earlier than its stream.
func TestOversizedWrittenSetsStream(t *testing.T) {
	const mem = int64(1 << 20)
	const huge = int64(16 << 20) // 16x the device memory

	// Whole-GPU placement of an update 16x over device memory.
	el := element.New(element.Config{Seed: 31, Virtual: true, GPUMem: mem})
	sch := NewScheduler(el, Options{})
	g := New()
	c := g.NewHandle("c", huge)
	g.Add(Task{Name: "upd", Codelet: gpuOnly("k", 0.001), Flops: 1e9}, []Access{{c, ReadWrite}}...)
	rep, err := sch.Run(g, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sp, _ := rep.Span("upd")
	if sp.Device != "gpu" {
		t.Fatalf("upd placed on %q, want gpu", sp.Device)
	}
	if rep.BytesIn != huge {
		t.Errorf("BytesIn = %d, want %d (whole tile streamed up)", rep.BytesIn, huge)
	}
	if rep.BytesOut != huge {
		t.Errorf("BytesOut = %d, want %d (streamed back under the kernel, not drained after)",
			rep.BytesOut, huge)
	}
	// A 1 ms kernel cannot hide a 32 MiB round trip: the task runs
	// bandwidth-bound and ends only once the last window drains.
	head := mem / 4 / 2
	if minEnd := el.GPU.TransferModel().Seconds(huge - head + huge); float64(sp.End) < minEnd {
		t.Errorf("streamed task ended at %v, before its stream could finish (%v)", sp.End, minEnd)
	}

	// Hybrid placement: the device share is still 8x over memory, and the
	// stream window must fit beside cached reads without evicting them.
	el2 := element.New(element.Config{Seed: 33, Virtual: true, GPUMem: mem})
	sch2 := NewScheduler(el2, Options{})
	g2 := New()
	a := g2.NewHandle("a", mem/2)
	o := g2.NewHandle("o", 64)
	b := g2.NewHandle("b", huge)
	g2.Add(Task{Name: "r1", Codelet: gpuOnly("r", 0.1), Flops: 1e9}, []Access{{a, Read}, {o, Write}}...)
	g2.Add(hybTask("hupd", 256, 0.5, 3.0, 1.0), Access{b, ReadWrite})
	g2.Add(Task{Name: "r2", Codelet: gpuOnly("r", 0.1), Flops: 1e9}, []Access{{a, Read}, {o, Write}}...)
	rep2, err := sch2.Run(g2, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hsp, _ := rep2.Span("hupd")
	if !strings.HasPrefix(hsp.Device, "hyb(") {
		t.Fatalf("hupd placed on %q, want hybrid", hsp.Device)
	}
	// "a" uploaded once: the stream window fits beside it, so r2 reads it
	// straight from residency instead of paying a re-upload.
	if want := mem/2 + huge/2; rep2.BytesIn != want {
		t.Errorf("BytesIn = %d, want %d (cached read must survive the stream)", rep2.BytesIn, want)
	}
	// Out: the streamed row share plus the final drain of the 64-byte "o".
	if want := huge/2 + 64; rep2.BytesOut != want {
		t.Errorf("BytesOut = %d, want %d (the device's streamed row share)", rep2.BytesOut, want)
	}
}

// TestRateSeedsPreventColdMisplacements is the cold-start regression: an
// unrepresentative first sample (a tiny launch-bound kernel) poisons the cold
// EWMA so every following task of the codelet misplaces onto the CPU, while a
// database seeded with the perfmodel rate — or warmed by earlier graphs —
// keeps them on the device.
func TestRateSeedsPreventColdMisplacements(t *testing.T) {
	probe := func() *Graph {
		g := New()
		// One launch-bound runt (rate 1e8 flops/s), then five big tasks
		// whose honest device rate is 1e10.
		h := g.NewHandle("h", 1<<20)
		g.Add(Task{Name: "runt", Codelet: both("k", 0.11, 0.1), Flops: 1e7}, []Access{{h, ReadWrite}}...)
		for i := 0; i < 5; i++ {
			g.Add(Task{Name: fmt.Sprintf("big%d", i), Codelet: both("k", 0.12, 0.1), Flops: 1e9}, []Access{{h, ReadWrite}}...)
		}
		return g
	}
	devices := func(sch *Scheduler) []string {
		rep, err := sch.Run(probe(), 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var out []string
		for _, ts := range rep.TaskSpans {
			out = append(out, ts.Device)
		}
		return out
	}

	// Warmed: a previous graph of big tasks taught the database the honest
	// device rate.
	elW := testElement(41)
	schW := NewScheduler(elW, Options{})
	warmup := New()
	hw := warmup.NewHandle("hw", 1<<20)
	for i := 0; i < 6; i++ {
		warmup.Add(Task{Name: fmt.Sprintf("w%d", i), Codelet: both("k", 0.12, 0.1), Flops: 1e9}, []Access{{hw, ReadWrite}}...)
	}
	if _, err := schW.Run(warmup, 0); err != nil {
		t.Fatal(err)
	}
	warm := devices(schW)

	// Cold, seeded from the model rate: first placements match the warm run.
	seeded := devices(NewScheduler(testElement(41), Options{
		RateSeeds: []RateSeed{{Codelet: "k", Class: ClassGPU, Rate: 1e10}},
	}))

	// Cold, unseeded: the runt's sample misplaces every big task.
	unseeded := devices(NewScheduler(testElement(41), Options{}))

	for i := 1; i < len(warm); i++ {
		if warm[i] != "gpu" {
			t.Fatalf("warm run placed big task %d on %q, want gpu", i, warm[i])
		}
		if seeded[i] != warm[i] {
			t.Errorf("seeded cold run placed big task %d on %q, warm run on %q", i, seeded[i], warm[i])
		}
		if unseeded[i] == "gpu" {
			t.Errorf("unseeded cold run placed big task %d on gpu — expected the poisoned EWMA to misplace it (regression bait gone?)", i)
		}
	}

	// Seeding never overrides a measurement or an earlier seed.
	db := NewRateDB()
	db.ObserveClass("k", ClassGPU, 1e9, 1)
	db.Seed("k", ClassGPU, 5e9)
	if got := db.EstimateClass("k", ClassGPU, 1e9, 9); got == 9 {
		t.Error("measured cell lost after Seed")
	}
	db2 := NewRateDB()
	db2.Seed("k", ClassHyb, 2e9)
	db2.Seed("k", ClassHyb, 4e9)
	want := 0.75*9 + 0.25*(1e9/2e9)
	if got := db2.EstimateClass("k", ClassHyb, 1e9, 9); got != want {
		t.Errorf("seeded estimate = %v, want %v (first seed wins)", got, want)
	}
}
