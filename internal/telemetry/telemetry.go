// Package telemetry is the observability substrate of the simulator: a
// low-overhead metric registry (counters, gauges, fixed-bucket histograms)
// plus a structured trace-event recorder that exports Chrome trace-event
// JSON with virtual-time timestamps (loadable in Perfetto or
// chrome://tracing). Every layer of the stack — the adaptive partitioner,
// the pipeline executor, the MPI substrate, the compute elements — carries
// probes that feed one Telemetry bundle, so the same event stream drives the
// ASCII Gantt renderer, the JSON export, and the metric dumps of the
// experiment binaries.
//
// The hot path is allocation-free: metrics are atomics fetched once at
// instrumentation time, and the disabled mode is a nil bundle whose method
// set no-ops, so uninstrumented runs pay a nil check per probe and nothing
// else.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Telemetry bundles a metric registry and a tracer. A nil *Telemetry is the
// disabled mode: every method on it, and on the nil metrics it hands out, is
// a no-op.
type Telemetry struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns an enabled bundle with an empty registry and tracer.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Trace: NewTracer()}
}

// Disabled returns the no-op bundle (nil). Probes built from it cost one
// nil check on the hot path and never allocate.
func Disabled() *Telemetry { return nil }

// Enabled reports whether the bundle records anything.
func (t *Telemetry) Enabled() bool { return t != nil }

// Counter returns the named counter, nil (a no-op counter) when disabled.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.Metrics.Counter(name)
}

// Gauge returns the named gauge, nil when disabled.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return t.Metrics.Gauge(name)
}

// Histogram returns the named histogram, nil when disabled.
func (t *Telemetry) Histogram(name string, bounds []float64) *Histogram {
	if t == nil {
		return nil
	}
	return t.Metrics.Histogram(name, bounds)
}

// Tracer returns the event recorder, nil when disabled.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.Trace
}

// Registry holds named metrics. Lookup (get-or-create) takes a mutex and may
// allocate; probes therefore fetch their metrics once and hold the pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// WriteText dumps every metric in a fixed, diffable layout: counters and
// gauges one per line, histograms with count/mean/quantiles.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	cn := make([]string, 0, len(r.counters))
	for n := range r.counters {
		cn = append(cn, n)
	}
	gn := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gn = append(gn, n)
	}
	hn := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		hn = append(hn, n)
	}
	r.mu.Unlock()
	sort.Strings(cn)
	sort.Strings(gn)
	sort.Strings(hn)
	for _, n := range cn {
		fmt.Fprintf(w, "counter   %-36s %d\n", n, r.Counter(n).Value())
	}
	for _, n := range gn {
		fmt.Fprintf(w, "gauge     %-36s %g\n", n, r.Gauge(n).Value())
	}
	for _, n := range hn {
		h := r.Histogram(n, nil)
		fmt.Fprintf(w, "histogram %-36s count=%d mean=%g p50=%g p95=%g\n",
			n, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95))
	}
}

// Counter is a monotonically increasing integer metric. All methods are safe
// on a nil receiver (the disabled mode) and on concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 when disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the latest value (or an accumulated
// sum via Add). Nil-safe and concurrent-safe.
type Gauge struct {
	bits atomic.Uint64
	// op remembers how the gauge has been written, so Registry.Merge can
	// combine isolated per-run registries with the right semantics: Set-style
	// gauges take the child's value (last writer, in merge order), Add-style
	// gauges accumulate. Set is sticky — a gauge that ever saw Set merges by
	// value.
	op atomic.Uint32
}

const (
	gaugeUntouched uint32 = iota
	gaugeSet
	gaugeAdd
)

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.op.Store(gaugeSet)
}

// Add accumulates v into the gauge (compare-and-swap loop). Concurrent
// adders commit in scheduling order, and float addition does not
// associate, so a sum that must repeat run to run has one writer: each
// concurrent recorder accumulates its own and the owner folds them in index
// order (see merge.go).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			break
		}
	}
	g.op.CompareAndSwap(gaugeUntouched, gaugeAdd)
}

// Value returns the stored value (0 when disabled).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. A value v lands in the
// first bucket whose upper bound satisfies v <= bound; values above every
// bound land in the overflow bucket. Observe is an atomic increment plus a
// binary search over the (immutable) bounds — no allocation, no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    Gauge
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// bucket returns the index of the bucket v lands in: the first i with
// v <= bounds[i], or len(bounds) for overflow.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Mean returns the average observation (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket that holds it. The first bucket interpolates from zero
// (distributions here — fractions, durations, byte counts — are
// non-negative); the overflow bucket is clamped to the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < target {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if n == 0 {
			return hi
		}
		frac := (target - cum) / n
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
