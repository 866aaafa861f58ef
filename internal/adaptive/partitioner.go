package adaptive

import "math"

// Observation is the feedback from one hybrid execution: the workload, the
// split that was used, and the measured virtual times. It carries everything
// the paper's update rules need — five timer readings and the assigned work.
type Observation struct {
	// Work is the total floating-point operation count of the execution.
	Work float64
	// GSplit is the fraction that ran on the GPU.
	GSplit float64
	// TG is the time the GPU side took (transfers included).
	TG float64
	// TC is the time the CPU side took (the slowest core).
	TC float64
	// CoreWorks and CoreTimes are the per-core flop counts and times for the
	// level-2 update; they may be nil when only level 1 is in use.
	CoreWorks, CoreTimes []float64
	// Start and End bound the execution in virtual time. The update rules
	// ignore them; the telemetry decorator timestamps its GSplit/CSplit
	// samples with End. Zero is fine for callers without a clock.
	Start, End float64
}

// Partitioner decides how a workload is divided between the GPU and the CPU
// cores, and consumes post-execution feedback. The three implementations are
// the paper's adaptive scheme and its two comparison points.
type Partitioner interface {
	// Name identifies the policy in experiment output.
	Name() string
	// GSplit returns the GPU fraction for a workload of the given flops.
	GSplit(work float64) float64
	// CSplits writes the per-core fractions of the CPU share (they sum to
	// 1) into dst's storage, growing it only when it is too short, and
	// returns the filled slice; CSplits(nil) returns a fresh one.
	CSplits(dst []float64) []float64
	// Observe feeds one execution's measurements back into the policy.
	Observe(obs Observation)
}

// Split bounds: the update rule never drives either side to exactly zero
// work, so both rates stay measurable on the next execution.
const (
	minGSplit = 0.02
	maxGSplit = 0.995
)

func clampSplit(s float64) float64 {
	if math.IsNaN(s) {
		return minGSplit
	}
	return math.Min(maxGSplit, math.Max(minGSplit, s))
}

// Adaptive is the paper's two-level scheme backed by database_g and
// database_c.
type Adaptive struct {
	G *DatabaseG
	C *DatabaseC
}

// NewAdaptive builds the adaptive partitioner with j workload buckets over
// (0, maxWork] flops, nCores compute cores, and the peak-ratio initial split.
func NewAdaptive(j int, maxWork, initialSplit float64, nCores int) *Adaptive {
	return &Adaptive{
		G: NewDatabaseG(j, maxWork, clampSplit(initialSplit)),
		C: NewDatabaseC(nCores),
	}
}

// NewAdaptiveFromDatabase builds the partitioner around an existing (e.g.
// deserialized) database_g, implementing the paper's cross-run workflow: the
// new mapping written at the end of one program is the next program's
// initial mapping.
func NewAdaptiveFromDatabase(g *DatabaseG, nCores int) *Adaptive {
	if g == nil {
		panic("adaptive: nil database")
	}
	return &Adaptive{G: g, C: NewDatabaseC(nCores)}
}

// Name implements Partitioner.
func (a *Adaptive) Name() string { return "adaptive" }

// GSplit implements Partitioner: step one of level 1, a database_g lookup
// indexed by the flop count.
func (a *Adaptive) GSplit(work float64) float64 { return a.G.Lookup(work) }

// CSplits implements Partitioner: step one of level 2.
func (a *Adaptive) CSplits(dst []float64) []float64 { return a.C.Splits(dst) }

// Observe implements Partitioner: step two of both levels. The measured
// rates P_G = W_G/T_G and P_C = W_C/T_C produce the next split
// GSplit' = P_G/(P_G+P_C), written back to database_g; the per-core rates
// update database_c the same way.
func (a *Adaptive) Observe(obs Observation) {
	if finitePositive(obs.Work) && finitePositive(obs.TG) && finitePositive(obs.TC) &&
		obs.GSplit >= 0 && obs.GSplit <= 1 {
		pg := obs.Work * obs.GSplit / obs.TG
		pc := obs.Work * (1 - obs.GSplit) / obs.TC
		if pg+pc > 0 {
			a.G.Store(obs.Work, clampSplit(pg/(pg+pc)))
		}
	}
	if obs.CoreWorks != nil && obs.CoreTimes != nil {
		a.C.Update(obs.CoreWorks, obs.CoreTimes)
	}
}

// finitePositive reports whether v is a usable measurement: garbage
// durations (Inf from a wedged timer, NaN, negatives) must never corrupt
// the databases.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Static is the fixed peak-ratio policy (the Fatica/Merge-style mapping the
// paper cites): the split never changes and the cores share equally.
type Static struct {
	split  float64
	nCores int
}

// NewStatic builds the static policy with the given GPU fraction.
func NewStatic(split float64, nCores int) *Static {
	return &Static{split: clampSplit(split), nCores: nCores}
}

// Name implements Partitioner.
func (s *Static) Name() string { return "static" }

// GSplit implements Partitioner.
func (s *Static) GSplit(float64) float64 { return s.split }

// CSplits implements Partitioner.
func (s *Static) CSplits(dst []float64) []float64 {
	dst = dst[:0]
	for range s.nCores {
		dst = append(dst, 1/float64(s.nCores))
	}
	return dst
}

// Observe implements Partitioner: static policies ignore feedback.
func (s *Static) Observe(Observation) {}

// Trained is the Qilin-style policy: splits are learned during an explicit
// offline training phase and then frozen for the production run. It wraps an
// Adaptive policy with a switch that stops all updates once training ends —
// exactly the property that makes it mispredict when conditions drift after
// training (Section VI.C).
type Trained struct {
	inner    *Adaptive
	training bool
}

// NewTrained builds a trainable policy with the same shape as NewAdaptive,
// starting in training mode.
func NewTrained(j int, maxWork, initialSplit float64, nCores int) *Trained {
	return &Trained{inner: NewAdaptive(j, maxWork, initialSplit, nCores), training: true}
}

// Name implements Partitioner.
func (t *Trained) Name() string { return "qilin-trained" }

// Training reports whether observations still update the databases.
func (t *Trained) Training() bool { return t.training }

// Freeze ends the training phase; later observations are discarded.
func (t *Trained) Freeze() { t.training = false }

// GSplit implements Partitioner.
func (t *Trained) GSplit(work float64) float64 { return t.inner.GSplit(work) }

// CSplits implements Partitioner.
func (t *Trained) CSplits(dst []float64) []float64 { return t.inner.CSplits(dst) }

// Observe implements Partitioner.
func (t *Trained) Observe(obs Observation) {
	if t.training {
		t.inner.Observe(obs)
	}
}

var (
	_ Partitioner = (*Adaptive)(nil)
	_ Partitioner = (*Static)(nil)
	_ Partitioner = (*Trained)(nil)
)
