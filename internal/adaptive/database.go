// Package adaptive implements the paper's primary contribution: the
// two-level adaptive task-mapping framework of Section IV. Level 1 splits
// each workload between the GPU and the CPU of a compute element using a
// GSplit fraction kept in database_g, bucketed by workload (floating-point
// operation count) and refreshed after every execution from the measured
// rates. Level 2 splits the CPU share across the compute cores using
// per-core CSplit fractions kept in database_c. The package also provides
// the baselines the paper compares against: a static peak-ratio split and a
// Qilin-style trained split that is profiled once and then frozen.
package adaptive

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// DatabaseG is database_g: J items, each holding the GSplit value for
// workloads within one range. Item i (1-based in the paper) covers
// ((i-1)*W/J, i*W/J]; workloads beyond the configured maximum use the last
// item. Every item starts at the peak-ratio split.
type DatabaseG struct {
	mu      sync.Mutex
	buckets []float64
	touched []bool
	maxWork float64
	initial float64

	// Fault-resilience state (never serialized — a persisted database is
	// always the healthy view). While quarantined, stores are discarded:
	// measurements taken during an outage describe hardware that no longer
	// exists. After Rewarm, stale buckets are blended back from the initial
	// peak ratio toward their learned value as trust recovers.
	trust Trust
	stale []bool
}

// NewDatabaseG builds a database with j buckets over workloads in
// (0, maxWork], all initialized to initialSplit.
func NewDatabaseG(j int, maxWork, initialSplit float64) *DatabaseG {
	if j <= 0 {
		panic("adaptive: database_g needs at least one bucket")
	}
	if maxWork <= 0 {
		panic("adaptive: database_g needs a positive workload range")
	}
	d := &DatabaseG{
		buckets: make([]float64, j),
		touched: make([]bool, j),
		maxWork: maxWork,
		initial: initialSplit,
	}
	for i := range d.buckets {
		d.buckets[i] = initialSplit
	}
	return d
}

// Buckets returns the number of items J.
func (d *DatabaseG) Buckets() int { return len(d.buckets) }

// MaxWork returns the workload covered by the last bucket.
func (d *DatabaseG) MaxWork() float64 { return d.maxWork }

// Initial returns the peak-ratio split every bucket started from.
func (d *DatabaseG) Initial() float64 { return d.initial }

func (d *DatabaseG) index(work float64) int {
	if work <= 0 || math.IsNaN(work) {
		return 0
	}
	i := int(work / d.maxWork * float64(len(d.buckets)))
	if i >= len(d.buckets) || i < 0 { // i < 0 covers +Inf workloads
		i = len(d.buckets) - 1
	}
	return i
}

// Lookup returns the stored split for a workload of the given flop count.
// During a re-warm, buckets whose learned value predates the outage return
// a blend initial + (learned-initial)*trust: right after recovery the
// conservative peak ratio, converging back to the learned split as fresh
// measurements rebuild trust.
func (d *DatabaseG) Lookup(work float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.index(work)
	v := d.buckets[i]
	if d.trust.Warming() && d.stale[i] {
		v = d.initial + (v-d.initial)*d.trust.Weight()
	}
	return v
}

// Store writes a new split for the bucket covering the given workload.
// While quarantined the write is discarded; during a re-warm it marks the
// bucket fresh and steps the database-wide trust toward 1.
func (d *DatabaseG) Store(work, split float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.trust.Quarantined() {
		return
	}
	i := d.index(work)
	d.buckets[i] = split
	d.touched[i] = true
	if d.trust.Warming() {
		d.stale[i] = false
		d.trust.Step()
	}
}

// Quarantine freezes the database during a device outage: lookups keep
// answering from the last healthy state (the runtime still needs splits for
// its CPU-side fallback), but stores are discarded until Rewarm — rates
// measured against lost hardware must never overwrite learned splits.
func (d *DatabaseG) Quarantine() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trust.Quarantine()
}

// Quarantined reports whether stores are currently discarded.
func (d *DatabaseG) Quarantined() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trust.Quarantined()
}

// Rewarm lifts a quarantine after device recovery. Every previously learned
// bucket is marked stale and trust drops to zero, so lookups restart from
// the initial peak ratio and converge back along the Trust curve, one step
// per Store. The runtimes pass RewarmHalfLife; halfLife <= 0 restores full
// trust immediately.
func (d *DatabaseG) Rewarm(halfLife float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trust.Rewarm(halfLife)
	if len(d.stale) != len(d.buckets) {
		d.stale = make([]bool, len(d.buckets))
	}
	copy(d.stale, d.touched)
}

// Entry is one database_g item in a snapshot.
type Entry struct {
	// WorkLo and WorkHi bound the bucket's workload range in flops.
	WorkLo, WorkHi float64
	// Split is the stored GSplit value.
	Split float64
	// Touched reports whether the bucket was ever updated from a
	// measurement (false means it still holds the initial peak ratio).
	Touched bool
}

// Snapshot returns every bucket in order; Figure 10 plots exactly this.
func (d *DatabaseG) Snapshot() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Entry, len(d.buckets))
	w := d.maxWork / float64(len(d.buckets))
	for i := range d.buckets {
		out[i] = Entry{
			WorkLo:  float64(i) * w,
			WorkHi:  float64(i+1) * w,
			Split:   d.buckets[i],
			Touched: d.touched[i],
		}
	}
	return out
}

type databaseGJSON struct {
	MaxWork float64   `json:"max_work"`
	Initial float64   `json:"initial"`
	Buckets []float64 `json:"buckets"`
	Touched []bool    `json:"touched"`
}

// MarshalJSON serializes the database so a run's learned splits can seed the
// next run, as the paper's framework does between Linpack invocations.
func (d *DatabaseG) MarshalJSON() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return json.Marshal(databaseGJSON{
		MaxWork: d.maxWork,
		Initial: d.initial,
		Buckets: append([]float64(nil), d.buckets...),
		Touched: append([]bool(nil), d.touched...),
	})
}

// MaxBuckets bounds the bucket count of a deserialized database_g. The
// runtimes use 64; a file claiming more than this is not one of theirs.
const MaxBuckets = 1 << 16

// isSplit reports whether v is a GSplit fraction.
func isSplit(v float64) bool { return v >= 0 && v <= 1 }

// UnmarshalJSON restores a serialized database. The blob comes from outside
// the program (figures -db <file>), so anything Lookup could not return
// as a split is rejected: a bucket count outside [1, MaxBuckets], mismatched
// lengths, a non-positive workload range, or a split or initial value outside
// [0, 1].
func (d *DatabaseG) UnmarshalJSON(b []byte) error {
	var j databaseGJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if n := len(j.Buckets); n == 0 || n > MaxBuckets || n != len(j.Touched) {
		return fmt.Errorf("adaptive: database_g with %d buckets and %d touched flags, want 1..%d of each",
			n, len(j.Touched), MaxBuckets)
	}
	if !(j.MaxWork > 0) {
		return fmt.Errorf("adaptive: database_g workload range %v not positive", j.MaxWork)
	}
	if !isSplit(j.Initial) {
		return fmt.Errorf("adaptive: database_g initial split %v outside [0, 1]", j.Initial)
	}
	for i, v := range j.Buckets {
		if !isSplit(v) {
			return fmt.Errorf("adaptive: database_g bucket %d holds split %v outside [0, 1]", i, v)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maxWork = j.MaxWork
	d.initial = j.Initial
	d.buckets = j.Buckets
	d.touched = j.Touched
	// A restore is a fresh healthy state: any in-flight quarantine/re-warm
	// belongs to the overwritten run.
	d.trust = Trust{}
	d.stale = nil
	return nil
}

// DatabaseC is database_c: one CSplit fraction per compute core, initialized
// to 1/n and refreshed from measured per-core rates.
type DatabaseC struct {
	mu     sync.Mutex
	splits []float64
}

// NewDatabaseC builds the per-core database for n cores.
func NewDatabaseC(n int) *DatabaseC {
	if n <= 0 {
		panic("adaptive: database_c needs at least one core")
	}
	d := &DatabaseC{splits: make([]float64, n)}
	for i := range d.splits {
		d.splits[i] = 1 / float64(n)
	}
	return d
}

// Splits returns a copy of the current per-core fractions (they sum to 1).
func (d *DatabaseC) Splits() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.splits...)
}

// Restore overwrites the per-core fractions with a snapshot previously taken
// by Splits, for checkpoint/restore. The arity must match.
func (d *DatabaseC) Restore(splits []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(splits) != len(d.splits) {
		panic("adaptive: database_c restore arity mismatch")
	}
	copy(d.splits, splits)
}

// Update recomputes the fractions from one execution: works[i] is the flop
// count core i received and times[i] the virtual time it took. Following the
// paper, P_Ci = works[i]/times[i] and CSplit_i = P_Ci / sum(P_Cj). Cores that
// received no work keep their implied rate from the current split (their
// share is preserved), so a degenerate assignment cannot zero a core out
// forever.
func (d *DatabaseC) Update(works, times []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.splits)
	if len(works) != n || len(times) != n {
		panic("adaptive: database_c update arity mismatch")
	}
	rates := make([]float64, n)
	var total float64
	for i := range rates {
		if works[i] > 0 && times[i] > 0 && !math.IsNaN(works[i]) &&
			!math.IsInf(works[i], 1) && !math.IsInf(times[i], 1) {
			rates[i] = works[i] / times[i]
		}
	}
	// Fill in unmeasured cores with a rate proportional to their current
	// share of the measured aggregate.
	var measured float64
	var measuredShare float64
	for i := range rates {
		if rates[i] > 0 {
			measured += rates[i]
			measuredShare += d.splits[i]
		}
	}
	if measured == 0 {
		return // nothing observed; keep the database unchanged
	}
	for i := range rates {
		if rates[i] == 0 {
			if measuredShare > 0 {
				rates[i] = measured * d.splits[i] / measuredShare
			}
		}
		total += rates[i]
	}
	for i := range rates {
		d.splits[i] = rates[i] / total
	}
}
