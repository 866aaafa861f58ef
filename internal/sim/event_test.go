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

// eventLoop is what a schedule needs from either engine.
type eventLoop interface {
	Now() Time
	At(at Time, fn func())
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

// playSortedRuns drives a replay-shaped schedule: long pre-submitted runs in
// non-decreasing time order (the lane's case), interleaved with out-of-order
// events that must go on the heap, many of them at a time a run event already
// holds, so lane and heap heads tie on At and only seq orders them. Fired
// events schedule more work at the current instant and a little later — a
// batcher's seal timers and completions — which lands behind the lane's tail.
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
			case r < 6: // the run itself; a zero step makes an in-lane tie
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

// playDrainRefill submits one event at a time and runs the engine dry before
// the next, the way a daemon feeds single requests: the lane empties and
// refills on every submission, and each fired event's follow-ups go to
// whichever queue their time allows.
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

// TestEngineMatchesContainerHeap proves the engine against the container/heap
// engine it replaced: random schedules, replay-shaped sorted runs mixed with
// out-of-order events and lane/heap ties, and one-at-a-time drain-and-refill
// must fire in the same order, at the same times, with the same partial-drain
// behaviour on both. (Mutation-checked: with the seq tie-break removed from
// less, or the lane-versus-heap pick in Step comparing At alone, this test
// fails.)
func TestEngineMatchesContainerHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		play  func(uint64, eventLoop) []float64
		seeds uint64
	}{
		{"random", playSchedule, 2000},
		{"sorted-runs", playSortedRuns, 300},
		{"drain-refill", playDrainRefill, 300},
	} {
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

// TestSortedSubmissionBypassesHeap pins the lane's purpose: a 32k-event
// pre-submission in time order, salted with events that arrive out of order,
// puts only the out-of-order ones on the heap, and the heap never grows
// beyond them while the run drains.
func TestSortedSubmissionBypassesHeap(t *testing.T) {
	rng := NewRNG(7)
	e := NewEngine()
	fired, tail, late := 0, Time(0), 0
	fn := func() { fired++ }
	for i := 0; i < 32768; i++ {
		at := tail + 1e-3*float64(rng.Intn(3))
		if rng.Intn(64) == 0 {
			at = tail * rng.Float64()
		}
		if at < tail {
			late++
		}
		tail = max(tail, at)
		e.At(at, fn)
	}
	if len(e.events) != late {
		t.Fatalf("heap holds %d events after submission, want the %d out-of-order ones", len(e.events), late)
	}
	if late == 0 {
		t.Fatal("schedule has no out-of-order events")
	}
	for e.Step() {
		if len(e.events) > late {
			t.Fatalf("heap grew to %d events, want at most %d", len(e.events), late)
		}
	}
	if fired != 32768 || e.Pending() != 0 {
		t.Fatalf("fired %d of 32768, %d pending", fired, e.Pending())
	}
}
