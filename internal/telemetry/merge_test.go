package telemetry

import (
	"bytes"
	"testing"
)

// The merge contract: folding child bundles into a parent in point order
// must leave the parent with every registration and every total the
// children recorded, and nothing a child rolled back.

func TestMergeRegistersZeroValuedMetrics(t *testing.T) {
	// The serial run registers a metric the moment a probe touches it, and
	// WriteText prints registered-but-zero metrics; the merge must preserve
	// those registrations or the parallel dump loses lines.
	serial := New()
	serial.Counter("ops.failed") // touched, never incremented
	serial.Gauge("last.split")
	serial.Histogram("lat", []float64{1, 2})

	child := New()
	child.Counter("ops.failed")
	child.Gauge("last.split")
	child.Histogram("lat", []float64{1, 2})
	parent := New()
	parent.Merge(child)

	var want, got bytes.Buffer
	serial.Metrics.WriteText(&want)
	parent.Metrics.WriteText(&got)
	if want.String() != got.String() {
		t.Errorf("merged dump differs from serial dump:\nserial:\n%sparallel:\n%s", want.String(), got.String())
	}
}

func TestRollbackThenMergeDropsUndoneAdds(t *testing.T) {
	// A checkpoint restore inside a point's bundle rolls back its metrics;
	// the adds it undid must not reach the parent when the point is merged.
	child := New()
	child.Gauge("acc").Add(1.25)
	child.Histogram("dist", []float64{1, 2}).Observe(0.5)
	snap := child.Snapshot()
	child.Gauge("acc").Add(3.5) // the lost iteration, redone after restore
	child.Histogram("dist", nil).Observe(1.5)
	child.Rollback(snap)
	child.Gauge("acc").Add(3.5)
	child.Histogram("dist", nil).Observe(1.5)

	parent := New()
	parent.Merge(child)
	if v := parent.Gauge("acc").Value(); v != 1.25+3.5 {
		t.Errorf("gauge after rollback+merge = %v, want %v (undone adds were merged)", v, 1.25+3.5)
	}
	if v := parent.Histogram("dist", nil).Sum(); v != 0.5+1.5 {
		t.Errorf("histogram sum after rollback+merge = %v, want %v", v, 0.5+1.5)
	}
	if n := parent.Histogram("dist", nil).Count(); n != 2 {
		t.Errorf("histogram count after rollback+merge = %d, want 2", n)
	}
}
