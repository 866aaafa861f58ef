package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	tel := New()
	c := tel.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if tel.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	tel := New()
	g := tel.Gauge("g")
	g.Set(1.5)
	g.Add(2.25)
	if got := g.Value(); got != 3.75 {
		t.Fatalf("gauge = %v, want 3.75", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %v, want -7", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	tel := New()
	h := tel.Histogram("h", []float64{1, 2, 4})
	// le-semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (-inf,1] (1,2] (2,4] (4,+inf)
	if len(h.counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(h.counts), len(want))
	}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-117) > 1e-12 {
		t.Errorf("sum = %v, want 117", sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	tel := New()
	h := tel.Histogram("h", []float64{10, 20, 30, 40})
	// 10 observations spread evenly through (0,40].
	for i := 1; i <= 10; i++ {
		h.Observe(float64(4 * i))
	}
	// Buckets: (0,10]=2 (12? no: 4,8 -> 2), (10,20]=3 (12,16,20), (20,30]=2
	// (24,28), (30,40]=3 (32,36,40). Interpolated quantiles stay inside the
	// right bucket and are monotone.
	q50 := h.Quantile(0.5)
	if q50 <= 10 || q50 > 20 {
		t.Errorf("p50 = %v, want within (10,20]", q50)
	}
	q90 := h.Quantile(0.9)
	if q90 <= 30 || q90 > 40 {
		t.Errorf("p90 = %v, want within (30,40]", q90)
	}
	if q0 := h.Quantile(0); q0 < 0 || q0 > 10 {
		t.Errorf("p0 = %v, want within [0,10]", q0)
	}
	if q100 := h.Quantile(1); q100 != 40 {
		t.Errorf("p100 = %v, want 40", q100)
	}
	if !(q50 < q90) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v", q50, q90)
	}
}

func TestHistogramOverflowQuantileClamps(t *testing.T) {
	tel := New()
	h := tel.Histogram("h", []float64{1})
	h.Observe(50)
	h.Observe(60)
	if q := h.Quantile(0.99); q != 1 {
		t.Errorf("overflow-only quantile = %v, want clamp to last bound 1", q)
	}
}

func TestDisabledIsNilAndSafe(t *testing.T) {
	tel := Disabled()
	if tel != nil {
		t.Fatal("Disabled() must be the nil bundle")
	}
	if tel.Enabled() {
		t.Fatal("nil bundle reports Enabled")
	}
	// Every accessor and every metric method must no-op on nil.
	c := tel.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := tel.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := tel.Histogram("h", []float64{1})
	h.Observe(3)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	tr := tel.Tracer()
	tr.Span("t", "cat", "n", 0, 1)
	tr.Instant("t", "cat", "n", 0)
	tr.Sample("s", 0, 1)
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
}

func TestDisabledHotPathAllocatesNothing(t *testing.T) {
	tel := Disabled()
	c := tel.Counter("c")
	g := tel.Gauge("g")
	h := tel.Histogram("h", []float64{1, 2})
	tr := tel.Tracer()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(1.5)
		tr.Sample("s", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %v per op, want 0", allocs)
	}
}

func TestEnabledMetricHotPathAllocatesNothing(t *testing.T) {
	tel := New()
	c := tel.Counter("c")
	g := tel.Gauge("g")
	h := tel.Histogram("h", []float64{1, 2})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("enabled metric hot path allocates %v per op, want 0", allocs)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	tel := New()
	tel.Counter("b.count").Add(2)
	tel.Counter("a.count").Add(1)
	tel.Gauge("z.gauge").Set(0.5)
	tel.Histogram("m.hist", []float64{1, 2}).Observe(1.5)
	var buf1, buf2 bytes.Buffer
	tel.Metrics.WriteText(&buf1)
	tel.Metrics.WriteText(&buf2)
	if buf1.String() != buf2.String() {
		t.Fatal("WriteText is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(buf1.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf1.String())
	}
	// Counters sort first among themselves, alphabetically.
	if !strings.Contains(lines[0], "a.count") || !strings.Contains(lines[1], "b.count") {
		t.Errorf("counters not sorted: %q %q", lines[0], lines[1])
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tel := New()
	tr := tel.Tracer()
	tr.Span("trackA", "cat1", "alpha", 0.5, 1.25)
	tr.Instant("trackB", "cat2", "beta", 2)
	tr.Sample("series.x", 3, 0.75)
	tr.Span("trackA", "cat1", "gamma", 1.25, 2.5)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Phase != w.Phase || g.Track != w.Track || g.Name != w.Name || g.Cat != w.Cat {
			t.Errorf("event %d: got %+v, want %+v", i, g, w)
		}
		if math.Abs(g.Start-w.Start) > 1e-6 || math.Abs(g.End-w.End) > 1e-6 {
			t.Errorf("event %d times: got [%v,%v], want [%v,%v]", i, g.Start, g.End, w.Start, w.End)
		}
		if math.Abs(g.Value-w.Value) > 1e-12 {
			t.Errorf("event %d value: got %v, want %v", i, g.Value, w.Value)
		}
	}
}

func TestTracerSeries(t *testing.T) {
	tel := New()
	tr := tel.Tracer()
	tr.Sample("s", 1, 10)
	tr.Sample("other", 1.5, 99)
	tr.Sample("s", 2, 20)
	got := tr.Series("s")
	if len(got) != 2 || got[0].V != 10 || got[1].V != 20 {
		t.Fatalf("Series = %+v, want [{1 10} {2 20}]", got)
	}
	if other := tr.Series("other"); len(other) != 1 || other[0].V != 99 {
		t.Fatalf("Series(other) = %+v, want [{1.5 99}]", other)
	}
}
