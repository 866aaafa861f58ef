package adaptive

import (
	"fmt"

	"tianhe/internal/telemetry"
)

// Instrumented decorates a Partitioner with telemetry probes: every Observe
// emits the newly stored GSplit and the per-core CSplits as counter series
// ("adaptive.gsplit", "adaptive.work", "adaptive.csplit.core<i>") timestamped
// with the observation's virtual end time, and maintains convergence metrics
// (update count, last split, per-update split delta histogram). The decorated
// policy is unchanged; GSplit/CSplits delegate directly.
type Instrumented struct {
	Partitioner

	trace     *telemetry.Tracer
	updates   *telemetry.Counter
	lastSplit *telemetry.Gauge
	delta     *telemetry.Histogram
	coreNames []string
}

// deltaBuckets grade the per-update |GSplit' - GSplit| magnitude: converged
// policies sit in the smallest buckets.
var deltaBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// Instrument wraps p with telemetry probes. A nil bundle (or nil policy)
// returns p unchanged, so uninstrumented paths keep the exact seed behavior.
func Instrument(p Partitioner, tel *telemetry.Telemetry) Partitioner {
	if p == nil || !tel.Enabled() {
		return p
	}
	names := make([]string, len(p.CSplits(nil)))
	for i := range names {
		names[i] = fmt.Sprintf("adaptive.csplit.core%d", i)
	}
	return &Instrumented{
		Partitioner: p,
		trace:       tel.Trace,
		updates:     tel.Counter("adaptive.updates"),
		lastSplit:   tel.Gauge("adaptive.gsplit.last"),
		delta:       tel.Histogram("adaptive.gsplit.delta", deltaBuckets),
		coreNames:   names,
	}
}

// Unwrap returns the decorated policy (the persistence paths reach through
// it for the concrete *Adaptive and its databases).
func (ip *Instrumented) Unwrap() Partitioner { return ip.Partitioner }

// Observe implements Partitioner: it forwards the observation, then samples
// the policy's post-update state into the telemetry stream.
func (ip *Instrumented) Observe(obs Observation) {
	ip.Partitioner.Observe(obs)

	newSplit := ip.Partitioner.GSplit(obs.Work)
	ip.updates.Inc()
	ip.lastSplit.Set(newSplit)
	d := newSplit - obs.GSplit
	if d < 0 {
		d = -d
	}
	ip.delta.Observe(d)
	ip.trace.Sample("adaptive.gsplit", obs.End, newSplit)
	ip.trace.Sample("adaptive.work", obs.End, obs.Work)
	for i, s := range ip.Partitioner.CSplits(nil) {
		if i < len(ip.coreNames) {
			ip.trace.Sample(ip.coreNames[i], obs.End, s)
		}
	}
}

// AsAdaptive returns the concrete *Adaptive behind p, reaching through any
// instrumentation decorators; ok is false for the non-adaptive policies.
func AsAdaptive(p Partitioner) (*Adaptive, bool) {
	for p != nil {
		switch v := p.(type) {
		case *Adaptive:
			return v, true
		case interface{ Unwrap() Partitioner }:
			p = v.Unwrap()
		default:
			return nil, false
		}
	}
	return nil, false
}

var _ Partitioner = (*Instrumented)(nil)
