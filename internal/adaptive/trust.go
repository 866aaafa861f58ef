package adaptive

import "tianhe/internal/sim"

// RewarmHalfLife is the re-warm half-life, in accepted observations, every
// runtime passes to Rewarm after a device recovery: the remaining distrust in
// what was learned before the outage halves every 8 fresh measurements, so a
// re-warm lasts 80 of them. A constant, not an option: no workload needs a
// second value, and every committed baseline that crosses a recovery
// (BENCH_serve.json's lost-gpu rung, the fault goldens) is recorded with 8.
const RewarmHalfLife = 8

// trustRestored is the weight past which a re-warm is over and learned state
// is used verbatim again.
const trustRestored = 0.999

// Trust is the fault-resilience state of one learned database: quarantined
// while the device is lost (the owner discards observations), then re-warming
// after recovery — a weight that restarts at 0 and, over k accepted
// observations, follows 1-0.5^(k/halfLife) until it passes 0.999. The owner
// decides what the weight scales (database_g blends stale buckets toward the
// initial split, the task-graph rate database scales its device-class
// measurements) and guards the value with its own mutex. The zero value is the
// healthy state, and the state is never serialized: a persisted database is
// always the healthy view.
type Trust struct {
	quarantined bool
	warming     bool
	weight      float64
	decay       float64 // per-observation factor on the remaining distrust, 0.5^(1/halfLife)
}

// Quarantine starts discarding observations.
func (t *Trust) Quarantine() { t.quarantined = true }

// Quarantined reports whether observations are currently discarded.
func (t *Trust) Quarantined() bool { return t.quarantined }

// Rewarm lifts the quarantine and restarts the weight at 0; halfLife <= 0
// restores full trust immediately.
func (t *Trust) Rewarm(halfLife float64) {
	*t = Trust{}
	if halfLife > 0 {
		t.warming = true
		// 0.5^(1/halfLife) as math.Pow evaluates it for a half-life of 8.
		t.decay = sim.Exp(1 / halfLife * sim.Log(0.5))
	}
}

// Warming reports whether a re-warm is in progress; only then does Weight
// apply.
func (t *Trust) Warming() bool { return t.warming }

// Weight is the current trust in pre-outage state, in [0, 1).
func (t *Trust) Weight() float64 { return t.weight }

// Step records one accepted observation during a re-warm.
func (t *Trust) Step() {
	t.weight = 1 - (1-t.weight)*t.decay
	if t.weight > trustRestored {
		t.warming = false
	}
}
