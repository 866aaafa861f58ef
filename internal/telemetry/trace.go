package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Phase identifies the kind of a trace event, mirroring the Chrome
// trace-event "ph" field.
type Phase byte

const (
	// PhaseSpan is a complete duration event ("X"): one operation occupying
	// [Start, End) on a track.
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event ("i").
	PhaseInstant Phase = 'i'
	// PhaseCounter is a sampled value over time ("C"), e.g. the GSplit
	// fraction after each adaptive update.
	PhaseCounter Phase = 'C'
)

// Event is one recorded trace event. Times are virtual seconds (the
// simulator's sim.Time); the JSON export converts them to microseconds as
// the trace-event format requires.
type Event struct {
	// Phase is the event kind.
	Phase Phase
	// Track names the resource lane (timeline name, controller object,
	// counter track). Tracks map to trace-event thread IDs.
	Track string
	// Name is the operation or counter name.
	Name string
	// Cat is the event category (trace viewers filter on it).
	Cat string
	// Start is the event time; End is the span end (spans only).
	Start, End float64
	// Value is the sampled value (counter events only).
	Value float64
}

// Duration returns the span length (0 for non-span events).
func (e Event) Duration() float64 {
	if e.Phase != PhaseSpan {
		return 0
	}
	return e.End - e.Start
}

// Sample is one point of a counter series.
type Sample struct {
	T float64 // virtual time
	V float64 // sampled value
}

// Tracer records events in order. All methods are nil-safe: a nil tracer
// drops everything, so probes need no enabled checks beyond passing it on.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	tids   map[string]int
	order  []string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{tids: make(map[string]int)}
}

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	if _, ok := t.tids[e.Track]; !ok {
		t.tids[e.Track] = len(t.order)
		t.order = append(t.order, e.Track)
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span records a complete event on a track.
func (t *Tracer) Span(track, cat, name string, start, end float64) {
	if t == nil {
		return
	}
	t.add(Event{Phase: PhaseSpan, Track: track, Cat: cat, Name: name, Start: start, End: end})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track, cat, name string, ts float64) {
	if t == nil {
		return
	}
	t.add(Event{Phase: PhaseInstant, Track: track, Cat: cat, Name: name, Start: ts})
}

// Sample records one point of the named counter series.
func (t *Tracer) Sample(name string, ts, v float64) {
	if t == nil {
		return
	}
	t.add(Event{Phase: PhaseCounter, Track: name, Cat: "counter", Name: name, Start: ts, Value: v})
}

// Events returns a copy of every recorded event in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Series returns the counter series recorded under name, in record order.
func (t *Tracer) Series(name string) []Sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Sample
	for _, e := range t.events {
		if e.Phase == PhaseCounter && e.Name == name {
			out = append(out, Sample{T: e.Start, V: e.Value})
		}
	}
	return out
}

// usec converts virtual seconds to trace-event microseconds, formatted with
// fixed precision so exports are deterministic and diffable.
func usec(s float64) string {
	return strconv.FormatFloat(s*1e6, 'f', 3, 64)
}

// WriteJSON exports the trace in Chrome trace-event format ("JSON object
// format" with a traceEvents array): thread-name metadata first, then every
// event in record order. The output is deterministic for a deterministic
// simulation, so goldens can guard it.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	order := append([]string(nil), t.order...)
	tids := make(map[string]int, len(t.tids))
	for k, v := range t.tids {
		tids[k] = v
	}
	t.mu.Unlock()

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	for i, track := range order {
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			i, quote(track)))
	}
	for _, e := range events {
		tid := tids[e.Track]
		switch e.Phase {
		case PhaseSpan:
			emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s}`,
				tid, usec(e.Start), usec(e.End-e.Start), quote(e.Name), quote(e.Cat)))
		case PhaseInstant:
			emit(fmt.Sprintf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"name":%s,"cat":%s,"s":"t"}`,
				tid, usec(e.Start), quote(e.Name), quote(e.Cat)))
		case PhaseCounter:
			emit(fmt.Sprintf(`{"ph":"C","pid":0,"tid":%d,"ts":%s,"name":%s,"args":{"value":%s}}`,
				tid, usec(e.Start), quote(e.Name), strconv.FormatFloat(e.Value, 'g', -1, 64)))
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// chromeEvent is the decoded wire form of one trace event.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args,omitempty"` // string for metadata, number for counters
}

type chromeTrace struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

// ParseTrace decodes a Chrome trace-event JSON export back into events,
// resolving thread-name metadata into track names. It round-trips WriteJSON
// exactly (up to the microsecond timestamp precision), which the tests use
// to validate every export path.
func ParseTrace(r io.Reader) ([]Event, error) {
	var wire chromeTrace
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("telemetry: decoding trace: %w", err)
	}
	tracks := make(map[int]string)
	var out []Event
	for _, raw := range wire.TraceEvents {
		var ce chromeEvent
		if err := json.Unmarshal(raw, &ce); err != nil {
			return nil, fmt.Errorf("telemetry: decoding trace event: %w", err)
		}
		switch ce.Ph {
		case "M":
			// Thread-name metadata carries a string arg; re-decode loosely.
			var meta struct {
				Args struct {
					Name string `json:"name"`
				} `json:"args"`
			}
			if err := json.Unmarshal(raw, &meta); err == nil && ce.Name == "thread_name" {
				tracks[ce.Tid] = meta.Args.Name
			}
		case "X":
			out = append(out, Event{
				Phase: PhaseSpan, Track: tracks[ce.Tid], Cat: ce.Cat, Name: ce.Name,
				Start: ce.Ts / 1e6, End: (ce.Ts + ce.Dur) / 1e6,
			})
		case "i":
			out = append(out, Event{
				Phase: PhaseInstant, Track: tracks[ce.Tid], Cat: ce.Cat, Name: ce.Name,
				Start: ce.Ts / 1e6,
			})
		case "C":
			v, _ := ce.Args["value"].(float64)
			out = append(out, Event{
				Phase: PhaseCounter, Track: tracks[ce.Tid], Cat: "counter", Name: ce.Name,
				Start: ce.Ts / 1e6, Value: v,
			})
		}
	}
	return out, nil
}
