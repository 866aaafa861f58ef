package sim

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewStream(7, "gpu")
	b := NewStream(7, "cpu")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("named streams produced %d identical values", same)
	}
}

func TestRNGStreamReproducible(t *testing.T) {
	a := NewStream(9, "net")
	b := NewStream(9, "net")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same (seed, name) must yield the same stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance %v, want ~4", variance)
	}
}

func TestLogNormalFactor(t *testing.T) {
	r := NewRNG(4)
	if f := r.LogNormalFactor(0); f != 1 {
		t.Fatalf("sigma=0 factor = %v, want exactly 1", f)
	}
	for i := 0; i < 1000; i++ {
		if f := r.LogNormalFactor(0.05); f <= 0 {
			t.Fatalf("factor must be positive, got %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRangeProperty(t *testing.T) {
	r := NewRNG(6)
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := r.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineSequencing(t *testing.T) {
	tl := NewTimeline("gpu")
	s1 := tl.Book("a", 0, 2)
	s2 := tl.Book("b", 0, 3)
	if s1.Start != 0 || s1.End != 2 {
		t.Fatalf("first span %v", s1)
	}
	if s2.Start != 2 || s2.End != 5 {
		t.Fatalf("second span must queue behind the first: %v", s2)
	}
	if tl.Available() != 5 {
		t.Fatalf("available = %v, want 5", tl.Available())
	}
}

func TestTimelineEarliest(t *testing.T) {
	tl := NewTimeline("dma")
	s := tl.Book("x", 10, 1)
	if s.Start != 10 || s.End != 11 {
		t.Fatalf("span respecting earliest: %v", s)
	}
}

func TestTimelineBookAfter(t *testing.T) {
	a := NewTimeline("in")
	b := NewTimeline("exec")
	in := a.Book("input", 0, 4)
	ex := b.BookAfter("kernel", 3, in)
	if ex.Start != 4 {
		t.Fatalf("dependent op must wait for dep end: start=%v", ex.Start)
	}
	// A second op on b with an already-satisfied dep starts immediately.
	ex2 := b.BookAfter("kernel2", 2, in)
	if ex2.Start != 7 {
		t.Fatalf("queued op start=%v, want 7", ex2.Start)
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration should panic")
		}
	}()
	NewTimeline("x").Book("bad", 0, -1)
}

func TestTimelineBusyAndSpans(t *testing.T) {
	tl := NewTimeline("core0")
	tl.Book("a", 0, 1.5)
	tl.Book("b", 0, 2.5)
	if got := tl.Busy(); got != 4 {
		t.Fatalf("busy = %v, want 4", got)
	}
	sp := tl.Spans()
	if len(sp) != 2 || sp[0].Label != "a" || sp[1].Label != "b" {
		t.Fatalf("spans = %v", sp)
	}
}

func TestTimelineRecordingOff(t *testing.T) {
	tl := NewTimeline("big")
	tl.SetRecording(false)
	tl.Book("a", 0, 1)
	if len(tl.Spans()) != 0 {
		t.Fatal("recording disabled but spans retained")
	}
	if tl.Available() != 1 {
		t.Fatal("time must still advance with recording off")
	}
}

func TestTimelineReset(t *testing.T) {
	tl := NewTimeline("r")
	tl.Book("a", 0, 3)
	tl.Reset()
	if tl.Available() != 0 || len(tl.Spans()) != 0 {
		t.Fatal("reset did not clear the timeline")
	}
}

// refSpanLog is the span retention Timeline had before its spans were
// chunked, kept verbatim (only the names changed): one slice grown by append,
// copied out by Spans, dropped by Reset. TestTimelineSpansMatchPlainAppend
// compares against it.
type refSpanLog struct {
	spans  []Span
	record bool
}

func (l *refSpanLog) book(sp Span) {
	if l.record {
		l.spans = append(l.spans, sp)
	}
}

func (l *refSpanLog) Spans() []Span {
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

func (l *refSpanLog) Reset() { l.spans = nil }

// TestTimelineSpansMatchPlainAppend proves the chunked span store: over
// random bookings — in bursts long enough to cross several chunk boundaries —
// SetRecording toggles and Resets, Spans returns exactly what the plain
// append version retained, as one fresh slice the caller may scribble on.
// (Mutation-checked: a new chunk that replaces the chunk list instead of
// joining it, or Spans gathering the chunks back to front, fails it.)
func TestTimelineSpansMatchPlainAppend(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRNG(seed)
		tl := NewTimeline("q")
		ref := &refSpanLog{record: true}
		check := func(when string) {
			t.Helper()
			got, want := tl.Spans(), ref.Spans()
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: %d spans recorded, plain append keeps %d", seed, when, len(got), len(want))
			}
			if len(got) > 0 {
				got[0].Label = "scribbled" // a copy: the next check must not see it
			}
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(8) {
			case 0:
				on := rng.Intn(2) == 0
				tl.SetRecording(on)
				ref.record = on
			case 1:
				tl.Reset()
				ref.Reset()
			default:
				burst := 1 + rng.Intn(3)
				if rng.Intn(3) == 0 {
					burst = rng.Intn(spanGrow + 2*spanChunk + 2)
				}
				for i := 0; i < burst; i++ {
					ref.book(tl.Book(strconv.Itoa(i), rng.Float64(), rng.Float64()))
				}
			}
			check("after op " + strconv.Itoa(op))
		}
	}
}

func TestTimelineAdvanceTo(t *testing.T) {
	tl := NewTimeline("adv")
	tl.AdvanceTo(5)
	if tl.Available() != 5 {
		t.Fatalf("available = %v", tl.Available())
	}
	tl.AdvanceTo(2) // going backwards is a no-op
	if tl.Available() != 5 {
		t.Fatal("AdvanceTo must never move backwards")
	}
}

func TestLatest(t *testing.T) {
	a, b := NewTimeline("a"), NewTimeline("b")
	a.Book("x", 0, 2)
	b.Book("y", 0, 7)
	if got := Latest(a, b); got != 7 {
		t.Fatalf("Latest = %v, want 7", got)
	}
}

func TestClockBasics(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock must start at zero")
	}
	c.Advance(2.5)
	c.Sync(2.0) // earlier: no-op
	if c.Now() != 2.5 {
		t.Fatalf("now = %v", c.Now())
	}
	c.Sync(4)
	if c.Now() != 4 {
		t.Fatalf("now = %v after sync", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance should panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(2, func() { order = append(order, "b") })
	e.At(1, func() { order = append(order, "a") })
	e.At(2, func() { order = append(order, "c") }) // FIFO among ties
	end := e.Run()
	if end != 2 {
		t.Fatalf("final time %v", end)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineCascade(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.At(e.Now()+1, tick)
		}
	}
	e.At(0, tick)
	end := e.Run()
	if count != 5 || end != 4 {
		t.Fatalf("count=%d end=%v", count, end)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++ })
	e.At(5, func() { ran++ })
	if !e.Step() || ran != 1 || e.Now() != 1 {
		t.Fatalf("after one step: ran=%d now=%v", ran, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending=%d", e.Pending())
	}
	if e.Run(); ran != 2 || e.Step() {
		t.Fatalf("after the drain: ran=%d, and Step on an empty queue must report false", ran)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(3, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(1, func() {})
}
