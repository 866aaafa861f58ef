package sim

// Event is a callback scheduled at a virtual time in an Engine.
type Event struct {
	At Time
	Fn func()

	seq int // tie-breaker: FIFO among equal timestamps
}

// less is the engine's one event order, (At, seq): time first, then
// scheduling order. seq is unique, so the order is total; the heap and the
// lane-versus-heap pick in Step both compare through it.
func less(a, b *Event) bool {
	//lint:ignore floateq exact-timestamp ties must fall through to the deterministic seq tie-breaker
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of event values ordered by less, so the pop
// sequence does not depend on the heap's internal layout.
type eventHeap []Event

func (h *eventHeap) push(ev Event) {
	*h = append(*h, ev)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !less(&s[j], &s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *eventHeap) pop() Event {
	n := len(*h) - 1
	s := (*h)[:n]
	top := (*h)[0]
	if n > 0 {
		s[0] = (*h)[n]
	}
	(*h)[n] = Event{} // drop the vacated slot's closure
	*h = s
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && less(&s[j+1], &s[j]) {
			j++
		}
		if !less(&s[j], &s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return top
}

// Engine is a minimal discrete-event simulation loop: events fire in
// timestamp order, and events with equal timestamps fire in the order they
// were scheduled. The serving layer runs its admission, batching and
// dispatch on it.
//
// Pending events sit in one of two queues, each kept in (At, seq) order. The
// lane is a FIFO: an event no earlier than the lane's last one is appended
// there, and since seq only grows the lane stays sorted. Any other event goes
// on the heap. Step fires the lesser of the two heads, so the firing order is
// the one total order a single heap would give, while a pre-submitted sorted
// run (a replayed arrival trace) costs an append and a sequential read per
// event instead of a heap sift.
type Engine struct {
	now     Time
	events  eventHeap
	lane    []Event // the lane's pending events are lane[head:]
	head    int
	nextSeq int
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time at. Scheduling in the past panics.
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := Event{At: at, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	n := len(e.lane)
	if n > e.head && at < e.lane[n-1].At {
		e.events.push(ev)
		return
	}
	if n == cap(e.lane) && e.head > n/2 {
		// Slide the live run down rather than grow past a mostly popped
		// prefix: each slide moves at most as many events as were popped.
		n = copy(e.lane, e.lane[e.head:])
		clear(e.lane[n:])
		e.lane, e.head = e.lane[:n], 0
	}
	e.lane = append(e.lane, ev)
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) + len(e.lane) - e.head }

// Step runs the earliest pending event, advancing time to it. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	var ev Event
	switch {
	case e.head < len(e.lane) && (len(e.events) == 0 || less(&e.lane[e.head], &e.events[0])):
		ev = e.lane[e.head]
		e.lane[e.head] = Event{} // drop the fired closure
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
	case len(e.events) > 0:
		ev = e.events.pop()
	default:
		return false
	}
	e.now = ev.At
	ev.Fn()
	return true
}

// Run executes events until none remain, returning the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
