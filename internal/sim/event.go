package sim

// Event is a callback scheduled at a virtual time in an Engine.
type Event struct {
	At Time
	Fn func()

	seq int // tie-breaker: FIFO among equal timestamps
}

// eventHeap is a binary min-heap of event values ordered by (At, seq): time
// first, then scheduling order. seq is unique, so the order is total and the
// pop sequence does not depend on the heap's internal layout.
type eventHeap []Event

func (h eventHeap) less(i, j int) bool {
	//lint:ignore floateq exact-timestamp ties must fall through to the deterministic seq tie-breaker
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev Event) {
	*h = append(*h, ev)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !s.less(j, i) {
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
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
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
type Engine struct {
	now     Time
	events  eventHeap
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
	e.events.push(Event{At: at, Fn: fn, seq: e.nextSeq})
	e.nextSeq++
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Step runs the earliest pending event, advancing time to it. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
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
