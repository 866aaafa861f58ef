package abft

import (
	"tianhe/internal/fault"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Tally counts the ABFT outcomes of a stretch of verified execution — one
// task queue, one hybrid call, one scheduled graph, one whole run. Reports
// embed it, so the counters read the same at every layer.
type Tally struct {
	// SDCDetected counts corruption strikes caught by verification;
	// SDCCorrected the subset recovered by recomputing just the struck task;
	// SDCEscalated the uncorrectable remainder (checksum row/column hit, or
	// several faults in one tile).
	SDCDetected, SDCCorrected, SDCEscalated int
	// RecomputedTasks counts task re-executions booked for recovery.
	RecomputedTasks int
	// VerifySeconds is the host time spent on checksum verification; the
	// layer that books it includes it in its own end time.
	VerifySeconds float64
}

// Add folds another tally into t.
func (t *Tally) Add(o Tally) {
	t.SDCDetected += o.SDCDetected
	t.SDCCorrected += o.SDCCorrected
	t.SDCEscalated += o.SDCEscalated
	t.RecomputedTasks += o.RecomputedTasks
	t.VerifySeconds += o.VerifySeconds
}

// Strike is the verdict on one verified task at its drain: it asks the
// injector whether the task — number seq in the run's drain order, drained at
// the given time with a rows x cols output — was struck, and counts a
// delivered strike into t. struck false means the check passed. Otherwise the
// outcome says what the caller owes: nothing more for Escalate (the tally
// carries it to the checkpoint machinery), or booking its own re-execution
// and re-verification of the task for Recompute — already counted here as
// corrected and recomputed, because how a layer re-runs a task is the only
// part that differs between them. A nil injector never strikes.
func (t *Tally) Strike(sdc *fault.Injector, seq int, drained sim.Time, rows, cols int) (outcome Outcome, struck bool) {
	hit, struck := sdc.SDCTask(seq, drained, rows, cols)
	if !struck {
		return outcome, false
	}
	t.SDCDetected++
	outcome = Classify(hit.Faults, hit.InChecksum)
	if outcome == Escalate {
		t.SDCEscalated++
	} else {
		t.SDCCorrected++
		t.RecomputedTasks++
	}
	return outcome, true
}

// Probes publishes tallies as metrics named <prefix>.sdc.detected,
// .sdc.corrected, .sdc.escalated and <prefix>.abft.verify_seconds. The
// metrics register on the first Publish, so runs that never verify keep their
// metric dumps unchanged.
type Probes struct {
	tel                            *telemetry.Telemetry
	prefix                         string
	detected, corrected, escalated *telemetry.Counter
	verifySeconds                  *telemetry.Gauge
}

// NewProbes prepares the probe set for an enabled bundle; nothing registers
// yet.
func NewProbes(tel *telemetry.Telemetry, prefix string) Probes {
	return Probes{tel: tel, prefix: prefix}
}

// Publish adds one tally to the metrics.
func (p *Probes) Publish(t Tally) {
	if p.detected == nil {
		p.detected = p.tel.Counter(p.prefix + ".sdc.detected")
		p.corrected = p.tel.Counter(p.prefix + ".sdc.corrected")
		p.escalated = p.tel.Counter(p.prefix + ".sdc.escalated")
		p.verifySeconds = p.tel.Gauge(p.prefix + ".abft.verify_seconds")
	}
	p.detected.Add(int64(t.SDCDetected))
	p.corrected.Add(int64(t.SDCCorrected))
	p.escalated.Add(int64(t.SDCEscalated))
	p.verifySeconds.Add(t.VerifySeconds)
}
