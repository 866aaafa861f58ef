package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Merging implements the one accumulation rule for telemetry that must
// repeat exactly: whatever records concurrently or per point owns its
// accumulators, and its owner folds them in index order once the recorders
// have finished. The sweep runner (internal/sweep) gives every point its own
// bundle at every -par and merges the children in point order; the mpi
// ranks keep their own receive-wait sums and trace, which World.Run folds in
// rank order. Because merge sources are quiescent and the fold order is
// fixed, the result is the same bytes for every -par and every goroutine
// schedule — counters sum, Add-style gauges add the child's total,
// Set-style gauges keep the last writer in point order, histograms add
// bucket-wise, and trace events (with their track registration) append in
// point order.

// Merge folds an isolated child bundle into t. Nil receivers and nil
// children are no-ops. The child must be quiescent (its run has completed).
func (t *Telemetry) Merge(child *Telemetry) {
	if t == nil || child == nil {
		return
	}
	t.Metrics.Merge(child.Metrics)
	t.Trace.Merge(child.Trace)
}

// Merge folds every metric of the child registry into r, creating metrics
// that r does not know yet. Counters add; histograms add bucket-wise (the
// bounds must agree — they come from the same probe code); gauges merge by
// how the child wrote them: Add-style gauges add the child's total, Set-style
// gauges overwrite (so the last merged child wins, matching serial order).
func (r *Registry) Merge(child *Registry) {
	if r == nil || child == nil {
		return
	}
	// Copy the child maps under its lock, then walk them in sorted name
	// order: metric values don't depend on the walk order (each name is
	// distinct), but the walk also CREATES missing metrics in r, and sorted
	// names keep that creation order deterministic.
	child.mu.Lock()
	counters := make(map[string]*Counter, len(child.counters))
	names := make([]string, 0, len(child.counters))
	for n, c := range child.counters {
		counters[n] = c
		names = append(names, n)
	}
	gauges := make(map[string]*Gauge, len(child.gauges))
	gnames := make([]string, 0, len(child.gauges))
	for n, g := range child.gauges {
		gauges[n] = g
		gnames = append(gnames, n)
	}
	histograms := make(map[string]*Histogram, len(child.histograms))
	hnames := make([]string, 0, len(child.histograms))
	for n, h := range child.histograms {
		histograms[n] = h
		hnames = append(hnames, n)
	}
	child.mu.Unlock()
	sort.Strings(names)
	sort.Strings(gnames)
	sort.Strings(hnames)

	for _, n := range names {
		// Create the parent counter even at zero: the serial run registers a
		// metric the moment a probe touches it, and the text dump prints
		// registered-but-zero metrics.
		dst := r.Counter(n)
		if v := counters[n].Value(); v != 0 {
			dst.Add(v)
		}
	}
	for _, n := range gnames {
		g := gauges[n]
		dst := r.Gauge(n) // register even when untouched, like the serial run
		switch g.op.Load() {
		case gaugeSet:
			dst.Set(g.Value())
		case gaugeAdd:
			dst.Add(g.Value())
		}
	}
	for _, n := range hnames {
		h := histograms[n]
		dst := r.Histogram(n, h.bounds)
		if len(dst.bounds) != len(h.bounds) {
			panic(fmt.Sprintf("telemetry: merging histogram %q with different bucket counts: %d vs %d",
				n, len(dst.bounds), len(h.bounds)))
		}
		for i, b := range h.bounds {
			// Bit-pattern identity: the bounds come from the same probe
			// constant, so anything but exact equality is a bug.
			if math.Float64bits(dst.bounds[i]) != math.Float64bits(b) {
				panic(fmt.Sprintf("telemetry: merging histogram %q with different bounds", n))
			}
		}
		for i := range h.counts {
			if v := h.counts[i].Load(); v != 0 {
				dst.counts[i].Add(v)
			}
		}
		if v := h.sum.Value(); v != 0 {
			dst.sum.Add(v)
		}
		if v := h.count.Load(); v != 0 {
			dst.count.Add(v)
		}
	}
}

// Merge appends every event of src (in src's record order) to t, registering
// src's tracks in first-use order exactly as if the events had been recorded
// on t directly. src is left unchanged. Nil receivers and sources no-op.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	events := src.Events()
	if len(events) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range events {
		if _, ok := t.tids[e.Track]; !ok {
			t.tids[e.Track] = len(t.order)
			t.order = append(t.order, e.Track)
		}
		t.events = append(t.events, e)
	}
}
