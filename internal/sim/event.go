package sim

// event is one pending callback of an Engine: fn for an At event, or a
// handler bound once plus its argument for an AtArg event.
type event struct {
	at  Time
	seq int // tie-breaker: FIFO among equal timestamps
	fn  func()
	h   func(int)
	arg int
}

// earlier is the engine's one event order, (at, seq): time first, then
// scheduling order. seq is unique, so the order is total; the heap and the
// run-versus-heap pick in Step both compare through it.
func earlier(at Time, seq int, bAt Time, bSeq int) bool {
	//lint:ignore floateq exact-timestamp ties must fall through to the deterministic seq tie-breaker
	if at != bAt {
		return at < bAt
	}
	return seq < bSeq
}

func less(a, b *event) bool { return earlier(a.at, a.seq, b.at, b.seq) }

// eventHeap is a binary min-heap of event values ordered by less, so the pop
// sequence does not depend on the heap's internal layout.
type eventHeap []event

func (h *eventHeap) push(ev event) {
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

func (h *eventHeap) pop() event {
	n := len(*h) - 1
	s := (*h)[:n]
	top := (*h)[0]
	if n > 0 {
		s[0] = (*h)[n]
	}
	(*h)[n] = event{} // drop the vacated slot's callback
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

// eventRun is a run registered with AtRun. Its pending events are indices
// [next, n): event i is due at at(i), carries seq seq0+i and fires as fire(i);
// head caches at(next).
type eventRun struct {
	at      func(i int) Time
	fire    func(i int)
	next, n int
	seq0    int
	head    Time
}

// Engine is a minimal discrete-event simulation loop: events fire in
// timestamp order, and events with equal timestamps fire in the order they
// were scheduled. The serving layer runs its admission, batching and
// dispatch on it.
//
// Single events (At, AtArg) sit on a binary heap. A pre-sorted run (AtRun, a
// replayed arrival trace) is not copied anywhere: the engine keeps the
// caller's two functions and a cursor, having reserved the run's seq numbers
// at registration. Step fires the least of the heap's head and every run's
// head, so the firing order is the one total (At, seq) order a single heap
// holding every event would give.
type Engine struct {
	now     Time
	events  eventHeap
	runs    []eventRun
	nextSeq int
	pending int
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time at. Scheduling in the past panics.
func (e *Engine) At(at Time, fn func()) { e.push(event{at: at, fn: fn}) }

// AtArg schedules h(arg) at absolute time at. h is meant to be bound once
// and reused — a worker's completion handler, a batch's seal timer — so
// that, unlike a fresh closure passed to At, scheduling allocates nothing.
// Scheduling in the past panics.
func (e *Engine) AtArg(at Time, h func(int), arg int) { e.push(event{at: at, h: h, arg: arg}) }

func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev.seq = e.nextSeq
	e.nextSeq++
	e.pending++
	e.events.push(ev)
}

// AtRun registers a run of n events: event i is due at at(i) and fires as
// fire(i). The times must not decrease with i, and the first must not
// precede Now; either mistake panics. The run takes the next n seq numbers,
// in index order, when it is registered, so its events fire exactly as n At
// calls made now would, interleaved with every other event by (At, seq).
// The engine stores nothing per event, only the two functions and a cursor:
// whatever they read must stay unchanged until the run has fired. An empty
// run registers nothing.
func (e *Engine) AtRun(n int, at func(i int) Time, fire func(i int)) {
	if n <= 0 {
		return
	}
	head := at(0)
	if head < e.now {
		panic("sim: scheduling event in the past")
	}
	for i, prev := 1, head; i < n; i++ {
		t := at(i)
		if t < prev {
			panic("sim: run not in time order")
		}
		prev = t
	}
	e.runs = append(e.runs, eventRun{at: at, fire: fire, n: n, seq0: e.nextSeq, head: head})
	e.nextSeq += n
	e.pending += n
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.pending }

// Step runs the earliest pending event, advancing time to it. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	pick := -1 // the run whose head fires; -1 is the heap's head
	var at Time
	var seq int
	found := len(e.events) > 0
	if found {
		at, seq = e.events[0].at, e.events[0].seq
	}
	for i := range e.runs {
		r := &e.runs[i]
		if s := r.seq0 + r.next; !found || earlier(r.head, s, at, seq) {
			pick, at, seq, found = i, r.head, s, true
		}
	}
	if !found {
		return false
	}
	e.now = at
	e.pending--
	if pick < 0 {
		ev := e.events.pop()
		if ev.h != nil {
			ev.h(ev.arg)
		} else {
			ev.fn()
		}
		return true
	}
	r := &e.runs[pick]
	i, fire := r.next, r.fire
	if r.next++; r.next < r.n {
		r.head = r.at(r.next)
	} else {
		// Spent: the last run takes its slot. The runs' order in the slice
		// never matters, since every head is compared.
		last := len(e.runs) - 1
		e.runs[pick] = e.runs[last]
		e.runs[last] = eventRun{}
		e.runs = e.runs[:last]
	}
	fire(i)
	return true
}

// Run executes events until none remain, returning the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
