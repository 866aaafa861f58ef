package taskgraph

import (
	"encoding/json"
	"math"

	"tianhe/internal/adaptive"
)

// rateAlpha is the EWMA weight of the newest measurement.
const rateAlpha = 0.25

// rateWarm is the observation count at which the blend weighs the measured
// rate and the model estimate equally (trust = n/(n+rateWarm)).
const rateWarm = 3.0

// Class names one implementation variant of a codelet: the CPU body, the GPU
// body, or the hybrid body that splits one task across both. Each class has
// its own measured-rate cell per codelet, because the three run at genuinely
// different effective rates (the hybrid join rate is neither side's rate).
type Class uint8

const (
	// ClassCPU is the single-core host implementation.
	ClassCPU Class = iota
	// ClassGPU is the whole-task device implementation.
	ClassGPU
	// ClassHyb is the split implementation: GSplit rows on the device, the
	// rest across the host cores, joined at the slower side.
	ClassHyb
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassGPU:
		return "gpu"
	case ClassHyb:
		return "hyb"
	}
	return "?"
}

// device reports whether the class needs live GPU hardware: device classes
// are quarantined together during an outage and re-warm together after it.
func (c Class) device() bool { return c != ClassCPU }

// deviceRate is one (codelet, class) cell: an EWMA of measured flops/second
// plus the observation count that drives the trust blend.
type deviceRate struct {
	Rate  float64 `json:"rate"`
	Count float64 `json:"count"`
}

// RateDB is the affinity database: per-codelet measured execution rates for
// the CPU, GPU, and hybrid variants, learned the same way database_g learns
// splits — EWMA refresh after every execution, trust-blended against the
// static model while warming, quarantined during a device outage and
// re-warmed after recovery. A RateDB is not safe for concurrent use: it is
// owned by one Scheduler, whose placement and booking are serial.
type RateDB struct {
	cells [numClasses]map[string]*deviceRate
	// last is each class's most recently resolved cell. One task's estimates
	// and its observation, and a run of tasks of one codelet, name the same
	// cell, so most lookups compare a string instead of hashing it.
	last [numClasses]resolvedCell

	// GPU fault-resilience state: while quarantined, device-class
	// observations (GPU and hybrid — both describe lost hardware) are
	// discarded; after Rewarm, device estimates blend back from the model
	// toward the learned rate as trust recovers.
	trust adaptive.Trust
}

// resolvedCell remembers one codelet's cell of a class; r is nil for none.
type resolvedCell struct {
	codelet string
	r       *deviceRate
}

// NewRateDB returns an empty affinity database.
func NewRateDB() *RateDB {
	db := &RateDB{}
	for c := range db.cells {
		db.cells[c] = make(map[string]*deviceRate)
	}
	return db
}

// lookup returns the (codelet, class) cell, nil when there is none.
func (db *RateDB) lookup(cls Class, codelet string) *deviceRate {
	l := &db.last[cls]
	if l.r != nil && l.codelet == codelet {
		return l.r
	}
	r := db.cells[cls][codelet]
	if r != nil {
		*l = resolvedCell{codelet, r}
	}
	return r
}

// cell returns the (codelet, class) cell, adding an empty one if need be.
func (db *RateDB) cell(cls Class, codelet string) *deviceRate {
	r := db.lookup(cls, codelet)
	if r == nil {
		r = &deviceRate{}
		db.cells[cls][codelet] = r
	}
	return r
}

// ObserveClass feeds one measured execution back: flops of work finished in
// seconds by the given variant class. Non-finite or non-positive measurements
// are discarded, as are device-class observations while quarantined.
func (db *RateDB) ObserveClass(codelet string, cls Class, flops, seconds float64) {
	if flops <= 0 || seconds <= 0 || math.IsInf(flops, 1) || math.IsInf(seconds, 1) ||
		math.IsNaN(flops) || math.IsNaN(seconds) {
		return
	}
	if cls.device() && db.trust.Quarantined() {
		return
	}
	r := db.cell(cls, codelet)
	rate := flops / seconds
	if r.Count == 0 {
		r.Rate = rate
	} else {
		r.Rate += float64(rateAlpha * (rate - r.Rate))
	}
	r.Count++
	if cls.device() && db.trust.Warming() {
		db.trust.Step()
	}
}

// Seed plants a model-derived rate into an empty (codelet, class) cell with
// the weight of a single observation, so the first placements of a run blend
// the perfmodel prediction instead of swinging on whatever the first jittered
// measurement happened to be. Cells that already hold a measurement — or a
// previous seed — are left alone, and a non-positive rate is ignored.
func (db *RateDB) Seed(codelet string, cls Class, rate float64) {
	if rate <= 0 || math.IsInf(rate, 1) || math.IsNaN(rate) {
		return
	}
	r := db.cell(cls, codelet)
	if r.Count > 0 {
		return
	}
	r.Rate = rate
	r.Count = 1
}

// EstimateClass predicts the duration of flops of work for the codelet's
// given variant class, blending the static model estimate with the measured
// rate by trust w = n/(n+warm): a cold database answers the model exactly, a
// warm one the measurement. During a device re-warm the measured contribution
// of the GPU and hybrid classes is further scaled by the recovering trust.
func (db *RateDB) EstimateClass(codelet string, cls Class, flops, modelSeconds float64) float64 {
	r := db.lookup(cls, codelet)
	if r == nil || r.Count == 0 || r.Rate <= 0 || flops <= 0 {
		return modelSeconds
	}
	w := r.Count / (r.Count + rateWarm)
	if cls.device() && db.trust.Warming() {
		w *= db.trust.Weight()
	}
	return float64((1-w)*modelSeconds) + w*flops/r.Rate
}

// Quarantine freezes the device classes during an outage: estimates keep
// answering (the scheduler still ranks the CPU fallback against the model),
// but GPU and hybrid observations are discarded until Rewarm.
func (db *RateDB) Quarantine() {
	db.trust.Quarantine()
}

// Quarantined reports whether device-class observations are currently
// discarded.
func (db *RateDB) Quarantined() bool {
	return db.trust.Quarantined()
}

// Rewarm lifts a quarantine after device recovery: device-class trust drops
// to zero so estimates restart from the model, and each subsequent device
// observation steps it back along the adaptive.Trust curve. The scheduler
// passes adaptive.RewarmHalfLife; halfLife <= 0 restores full trust
// immediately.
func (db *RateDB) Rewarm(halfLife float64) {
	db.trust.Rewarm(halfLife)
}

type rateDBJSON struct {
	CPU map[string]deviceRate `json:"cpu"`
	GPU map[string]deviceRate `json:"gpu"`
	Hyb map[string]deviceRate `json:"hyb"`
}

// MarshalJSON serializes the learned rates (resilience state is never
// persisted — a saved database is always the healthy view). Keys marshal in
// sorted order via encoding/json, so equal databases serialize identically.
func (db *RateDB) MarshalJSON() ([]byte, error) {
	j := rateDBJSON{
		CPU: map[string]deviceRate{},
		GPU: map[string]deviceRate{},
		Hyb: map[string]deviceRate{},
	}
	for _, p := range []struct {
		cls Class
		dst map[string]deviceRate
	}{{ClassCPU, j.CPU}, {ClassGPU, j.GPU}, {ClassHyb, j.Hyb}} {
		for k, v := range db.cells[p.cls] {
			p.dst[k] = *v
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a serialized database as a fresh healthy state,
// forgetting every cell resolved before. Databases saved before the hybrid
// class simply restore with no hybrid rates.
func (db *RateDB) UnmarshalJSON(b []byte) error {
	var j rateDBJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	for _, p := range []struct {
		cls Class
		src map[string]deviceRate
	}{{ClassCPU, j.CPU}, {ClassGPU, j.GPU}, {ClassHyb, j.Hyb}} {
		db.cells[p.cls] = make(map[string]*deviceRate, len(p.src))
		for k, v := range p.src {
			c := v
			db.cells[p.cls][k] = &c
		}
	}
	db.last = [numClasses]resolvedCell{}
	db.trust = adaptive.Trust{}
	return nil
}
