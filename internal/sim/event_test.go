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

// TestEngineMatchesContainerHeap proves the engine swap: 2,000 random
// schedules must fire in the same order, at the same times, with the same
// partial-drain behaviour on the typed value heap and on the container/heap
// engine it replaced. (Mutation-checked: with the seq tie-break removed from
// eventHeap.less this test fails.)
func TestEngineMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 2000; seed++ {
		got := playSchedule(seed, NewEngine())
		want := playSchedule(seed, &refEngine{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: histories differ\n got %v\nwant %v", seed, got, want)
		}
	}
}
