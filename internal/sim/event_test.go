package sim

import (
	"container/heap"
	"reflect"
	"testing"
)

// refEngine is the container/heap engine the typed value heap replaced, kept
// verbatim (only the names changed) as the reference TestEngineMatchesContainerHeap
// compares against.
type refEvent struct {
	At Time
	Fn func()

	seq int // tie-breaker: FIFO among equal timestamps
	idx int
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now     Time
	events  refEventHeap
	nextSeq int
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) At(at Time, fn func()) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := &refEvent{At: at, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.events, ev)
}

func (e *refEngine) Pending() int { return len(e.events) }

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*refEvent)
	e.now = ev.At
	ev.Fn()
	return true
}

func (e *refEngine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// AtArg is At with the handler's argument bound into a closure.
func (e *refEngine) AtArg(at Time, h func(int), arg int) { e.At(at, func() { h(arg) }) }

// AtRun is the n At calls a run stands for, made at registration.
func (e *refEngine) AtRun(n int, at func(i int) Time, fire func(i int)) {
	for i := 0; i < n; i++ {
		e.At(at(i), func() { fire(i) })
	}
}

// eventLoop is what a schedule needs from either engine.
type eventLoop interface {
	Now() Time
	At(at Time, fn func())
	AtArg(at Time, h func(int), arg int)
	AtRun(n int, at func(i int) Time, fire func(i int))
	Pending() int
	Step() bool
	Run() Time
}

// playSchedule drives one random schedule on e and returns its observable
// history: (event id, firing time) per event, and (pending, now) after every
// partial drain and the final Run. Timestamps sit on a quarter-second grid so
// exact ties are the common case; fired events schedule further events both
// at the current instant and later.
func playSchedule(seed uint64, e eventLoop) []float64 {
	rng := NewRNG(seed)
	var log []float64
	nextID, budget := 0, 150
	var schedule func(at Time)
	schedule = func(at Time) {
		if budget == 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		e.At(at, func() {
			log = append(log, float64(id), e.Now())
			for n := rng.Intn(3); n > 0; n-- {
				schedule(e.Now() + 0.25*float64(rng.Intn(4))) // offset 0: fires at now, after everything already queued there
			}
		})
	}
	for rounds := 1 + rng.Intn(4); rounds > 0; rounds-- {
		for n := 1 + rng.Intn(20); n > 0; n-- {
			schedule(e.Now() + 0.25*float64(rng.Intn(12)))
		}
		// Drain part of the queue, so the next round's pushes interleave
		// with what is still pending.
		for steps := rng.Intn(24); steps > 0 && e.Step(); steps-- {
		}
		log = append(log, float64(e.Pending()), e.Now())
	}
	log = append(log, e.Run(), float64(e.Pending()))
	return log
}

// playSortedRuns drives a replay-shaped schedule: long pre-submitted runs of
// At calls in non-decreasing time order, interleaved with out-of-order events,
// many of them at a time a run event already holds, so only seq orders the
// ties. Fired events schedule more work at the current instant and a little
// later — a batcher's seal timers and completions.
func playSortedRuns(seed uint64, e eventLoop) []float64 {
	rng := NewRNG(seed)
	var log []float64
	nextID := 0
	var schedule func(at Time, children int)
	schedule = func(at Time, children int) {
		id := nextID
		nextID++
		e.At(at, func() {
			log = append(log, float64(id), e.Now())
			for n := children; n > 0; n-- {
				schedule(e.Now()+0.25*float64(rng.Intn(3)), 0) // offset 0: fires at now, after everything already queued there
			}
		})
	}
	for rounds := 1 + rng.Intn(3); rounds > 0; rounds-- {
		t := e.Now()
		for n := 50 + rng.Intn(350); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 6: // the run itself; a zero step makes a tie within it
				t += 0.25 * float64(rng.Intn(3))
				schedule(t, rng.Intn(2))
			case r < 9: // out of order: at or before the run's tail, never in the past
				back := e.Now() + 0.25*float64(rng.Intn(int((t-e.Now())/0.25)+1))
				schedule(back, rng.Intn(2))
			default:
				schedule(e.Now(), 0)
			}
		}
		for steps := rng.Intn(200); steps > 0 && e.Step(); steps-- {
		}
		log = append(log, float64(e.Pending()), e.Now())
	}
	log = append(log, e.Run(), float64(e.Pending()))
	return log
}

// playRuns registers sorted runs with AtRun, which the reference engine
// expands into n At calls at registration. Each round schedules single
// events (At closures and AtArg handlers), registers one to three runs —
// empty ones among them — then schedules more single events and drains part
// of the queue, so later runs are registered mid-drain while earlier ones
// are still pending. Every time sits on a quarter-second grid: run heads tie
// on At with single events scheduled both before and after the registration,
// and only the seq reserved at registration orders those ties.
func playRuns(seed uint64, e eventLoop) []float64 {
	rng := NewRNG(seed)
	var log []float64
	nextID := 0
	logArg := func(id int) { log = append(log, float64(id), e.Now()) } // bound once, like a server's handlers
	var single func(at Time, children int)
	single = func(at Time, children int) {
		id := nextID
		nextID++
		if children == 0 && rng.Intn(2) == 0 {
			e.AtArg(at, logArg, id)
			return
		}
		e.At(at, func() {
			log = append(log, float64(id), e.Now())
			for n := children; n > 0; n-- {
				single(e.Now()+0.25*float64(rng.Intn(3)), 0) // offset 0: fires at now, after everything already queued there
			}
		})
	}
	singles := func() {
		for n := rng.Intn(10); n > 0; n-- {
			single(e.Now()+0.25*float64(rng.Intn(10)), rng.Intn(2))
		}
	}
	for rounds := 1 + rng.Intn(4); rounds > 0; rounds-- {
		singles()
		for runs := 1 + rng.Intn(3); runs > 0; runs-- {
			times := make([]Time, rng.Intn(4)*rng.Intn(20)) // a quarter of the runs are empty
			t := e.Now() + 0.25*float64(rng.Intn(3))
			for i := range times {
				t += 0.25 * float64(rng.Intn(3)/2) // two thirds of the steps are zero: ties within the run
				times[i] = t
			}
			id0 := nextID
			nextID += len(times)
			e.AtRun(len(times), func(i int) Time { return times[i] }, func(i int) {
				log = append(log, float64(id0+i), e.Now())
				if rng.Intn(4) == 0 {
					single(e.Now()+0.25*float64(rng.Intn(2)), 0)
				}
			})
		}
		singles()
		for steps := rng.Intn(60); steps > 0 && e.Step(); steps-- {
		}
		log = append(log, float64(e.Pending()), e.Now())
	}
	log = append(log, e.Run(), float64(e.Pending()))
	return log
}

// playDrainRefill submits one event at a time and runs the engine dry before
// the next, the way a daemon feeds single requests: each fired event's
// follow-ups land at the current instant or a little later.
func playDrainRefill(seed uint64, e eventLoop) []float64 {
	rng := NewRNG(seed)
	var log []float64
	nextID := 0
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		id := nextID
		nextID++
		e.At(at, func() {
			log = append(log, float64(id), e.Now())
			if depth < 2 {
				for n := rng.Intn(3); n > 0; n-- {
					schedule(e.Now()+0.25*float64(rng.Intn(4)), depth+1)
				}
			}
		})
	}
	for n := 1 + rng.Intn(40); n > 0; n-- {
		schedule(e.Now()+0.25*float64(rng.Intn(3)), 0)
		log = append(log, float64(e.Pending()), e.Run(), float64(e.Pending()))
	}
	return log
}

// engineSchedules are the schedule generators TestEngineMatchesContainerHeap
// and FuzzEngineOrder play on both engines.
var engineSchedules = []struct {
	name  string
	play  func(uint64, eventLoop) []float64
	seeds uint64
}{
	{"random", playSchedule, 2000},
	{"sorted-runs", playSortedRuns, 300},
	{"drain-refill", playDrainRefill, 300},
	{"registered-runs", playRuns, 2000},
}

// TestEngineMatchesContainerHeap proves the engine against the container/heap
// engine it replaced: random schedules, replay-shaped sorted At calls mixed
// with out-of-order events, one-at-a-time drain-and-refill, and runs
// registered with AtRun (expanded into n At calls on the reference) must fire
// in the same order, at the same times, with the same partial-drain behaviour
// on both. (Mutation-checked: with the seq tie-break removed from earlier, or
// with a run's seq taken when it fires instead of when it is registered,
// this test fails.)
func TestEngineMatchesContainerHeap(t *testing.T) {
	for _, tc := range engineSchedules {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= tc.seeds; seed++ {
				got := tc.play(seed, NewEngine())
				want := tc.play(seed, &refEngine{})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: histories differ\n got %v\nwant %v", seed, got, want)
				}
			}
		})
	}
}

// FuzzEngineOrder plays the TestEngineMatchesContainerHeap schedules at
// fuzzed seeds: the engine and the reference must log the same history.
func FuzzEngineOrder(f *testing.F) {
	for i := range engineSchedules {
		f.Add(uint64(i+1), uint8(i))
		f.Add(uint64(0x9e3779b97f4a7c15)+uint64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, schedule uint8) {
		tc := engineSchedules[int(schedule)%len(engineSchedules)]
		got := tc.play(seed, NewEngine())
		want := tc.play(seed, &refEngine{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d: histories differ\n got %v\nwant %v", tc.name, seed, got, want)
		}
	})
}

// TestSortedSubmissionBypassesHeap pins what a run is for: a registered 32k-event run,
// salted with single events at times the run holds, puts only the single
// events on the heap, and the heap never grows beyond them while the run
// drains.
func TestSortedSubmissionBypassesHeap(t *testing.T) {
	rng := NewRNG(7)
	e := NewEngine()
	times := make([]Time, 32768)
	for i := 1; i < len(times); i++ {
		times[i] = times[i-1] + 1e-3*float64(rng.Intn(3))
	}
	fired := 0
	fire := func(int) { fired++ }
	e.AtRun(len(times), func(i int) Time { return times[i] }, fire)
	singles := 0
	for i := 0; i < len(times); i += 1 + rng.Intn(128) {
		e.AtArg(times[i], fire, i)
		singles++
	}
	if len(e.events) != singles {
		t.Fatalf("heap holds %d events after submission, want the %d single ones", len(e.events), singles)
	}
	for e.Step() {
		if len(e.events) > singles {
			t.Fatalf("heap grew to %d events, want at most %d", len(e.events), singles)
		}
	}
	if want := len(times) + singles; fired != want || e.Pending() != 0 {
		t.Fatalf("fired %d of %d, %d pending", fired, want, e.Pending())
	}
}

// TestRunContract: a run that starts in the past, or whose times decrease,
// panics and registers nothing; an empty run is a no-op.
func TestRunContract(t *testing.T) {
	e := NewEngine()
	e.At(3, func() {})
	e.Run()
	mustPanic := func(name string, times []Time) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: AtRun did not panic", name)
			}
			if e.Pending() != 0 {
				t.Errorf("%s: a refused run left %d events pending", name, e.Pending())
			}
		}()
		e.AtRun(len(times), func(i int) Time { return times[i] }, func(int) {})
	}
	mustPanic("head in the past", []Time{1, 4})
	mustPanic("decreasing times", []Time{3, 5, 4})
	e.AtRun(0, nil, nil)
	if e.Pending() != 0 || e.Step() {
		t.Fatal("an empty run left an event behind")
	}
}
