package linpacksim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"tianhe/internal/adaptive"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// ErrCheckpointsExhausted reports that every checkpoint generation failed
// verification or restore — there is nothing left to roll back to. Run
// reacts by restarting the stepper clean from iteration zero (carrying the
// run's fault accounting), the degraded-but-forward path a real launcher
// takes when the checkpoint store itself is corrupt.
var ErrCheckpointsExhausted = errors.New("linpacksim: every checkpoint generation is unusable")

// Checkpoint captures the restartable state of a run between iterations:
// the loop position, the virtual clock, and the adaptive databases (the
// factored matrix itself is represented by the loop position — this
// simulator books time, it does not hold the numbers). Everything else an
// iteration reads is either immutable configuration or deliberately
// volatile: the per-core jitter streams are NOT captured, because a
// restarted element experiences fresh OS noise, not a replay of the old.
type Checkpoint struct {
	J          int             `json:"j"`
	Iterations int             `json:"iterations"`
	T          sim.Time        `json:"t"`
	DatabaseG  json.RawMessage `json:"database_g,omitempty"`
	CSplits    []float64       `json:"csplits,omitempty"`

	// Graph-mode state (Config.Graph): whether the next panel already ran
	// inside the checkpointed iteration's graph, the affinity database the
	// scheduler blends placements with, and the ABFT task counter that keys
	// the SDC injector's per-task streams.
	PanelAhead bool            `json:"panel_ahead,omitempty"`
	PrepAhead  bool            `json:"prep_ahead,omitempty"`
	Rates      json.RawMessage `json:"rates,omitempty"`
	TaskSeq    int             `json:"task_seq,omitempty"`

	// Sum seals the restartable fields above (FNV-1a over their canonical
	// byte form): a checkpoint corrupted at rest — the same silent-data-
	// corruption class ABFT guards against in flight — fails Verify and is
	// rejected by Restore instead of silently reinstalling poisoned state.
	Sum uint64 `json:"sum"`

	// tel captures the run's telemetry state at checkpoint time, so Restore
	// can roll spans and counters booked by lost iterations back out of the
	// run's totals — otherwise every redone iteration double-counts. The
	// snapshot is process-local (metric pointers), deliberately absent from
	// the JSON form: a checkpoint deserialized into another process carries
	// no telemetry to roll back, and Restore then leaves the bundle alone.
	tel *telemetry.Snapshot
}

// Checkpoint captures the current state. Call it only between iterations
// (after Step returns); mid-iteration state is not restartable, exactly as
// a real checkpointer must quiesce before writing.
func (s *Sim) Checkpoint() *Checkpoint {
	cp := &Checkpoint{J: s.j, Iterations: s.iters, T: s.t, tel: s.cfg.Telemetry.Snapshot()}
	if ad, ok := adaptive.AsAdaptive(s.part); ok {
		blob, err := json.Marshal(ad.G)
		if err != nil {
			panic(fmt.Sprintf("linpacksim: serializing database_g: %v", err))
		}
		cp.DatabaseG = blob
		cp.CSplits = ad.C.Splits(nil)
	}
	if s.gsched != nil {
		blob, err := json.Marshal(s.gsched.Rates())
		if err != nil {
			panic(fmt.Sprintf("linpacksim: serializing affinity rates: %v", err))
		}
		cp.PanelAhead = s.panelAhead
		cp.PrepAhead = s.prepAhead
		cp.Rates = blob
		cp.TaskSeq = s.gsched.TaskSeq()
	}
	cp.Sum = cp.checksum()
	return cp
}

// checksum folds every restartable field into one FNV-1a word. The float
// fields hash by their IEEE bit patterns, so any single bit flip — the SDC
// model's fault unit — changes the sum.
func (cp *Checkpoint) checksum() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime
		}
	}
	word(uint64(cp.J))
	word(uint64(cp.Iterations))
	word(math.Float64bits(float64(cp.T)))
	word(uint64(len(cp.DatabaseG)))
	for _, b := range cp.DatabaseG {
		h ^= uint64(b)
		h *= prime
	}
	word(uint64(len(cp.CSplits)))
	for _, f := range cp.CSplits {
		word(math.Float64bits(f))
	}
	if cp.PanelAhead {
		word(1)
	} else {
		word(0)
	}
	if cp.PrepAhead {
		word(1)
	} else {
		word(0)
	}
	word(uint64(len(cp.Rates)))
	for _, b := range cp.Rates {
		h ^= uint64(b)
		h *= prime
	}
	word(uint64(cp.TaskSeq))
	return h
}

// Verify reports whether the checkpoint's seal matches its contents.
func (cp *Checkpoint) Verify() error {
	if got := cp.checksum(); got != cp.Sum {
		return fmt.Errorf("linpacksim: checkpoint checksum %#x does not match seal %#x — corrupted at rest", got, cp.Sum)
	}
	return nil
}

// Restore reinstalls a checkpoint taken from this run's Sim: the loop
// position and clock come back exactly, every resource timeline is reset
// and advanced to the checkpoint time, and the adaptive databases are
// restored in place. Restoring a checkpoint and continuing reproduces the
// uninterrupted run bit-for-bit, because at iteration boundaries no
// resource is booked past the clock and the jitter streams are only
// consumed by iterations that no longer run twice in a pure round-trip.
func (s *Sim) Restore(cp *Checkpoint) error {
	if err := cp.Verify(); err != nil {
		return err
	}
	if cp.J < 0 || cp.J > s.cfg.N {
		return fmt.Errorf("linpacksim: checkpoint position %d outside [0, %d]", cp.J, s.cfg.N)
	}
	if (cp.DatabaseG != nil) != s.cfg.Variant.Adaptive() {
		return fmt.Errorf("linpacksim: checkpoint and variant %v disagree about adaptive state", s.cfg.Variant)
	}
	if cp.DatabaseG != nil {
		ad, ok := adaptive.AsAdaptive(s.part)
		if !ok {
			return fmt.Errorf("linpacksim: adaptive variant without an adaptive partitioner")
		}
		if err := ad.G.UnmarshalJSON(cp.DatabaseG); err != nil {
			return fmt.Errorf("linpacksim: restoring database_g: %w", err)
		}
		ad.C.Restore(cp.CSplits)
	}
	if s.gsched != nil {
		if cp.Rates != nil {
			if err := json.Unmarshal(cp.Rates, s.gsched.Rates()); err != nil {
				return fmt.Errorf("linpacksim: restoring affinity rates: %w", err)
			}
		}
		s.panelAhead = cp.PanelAhead
		s.prepAhead = cp.PrepAhead
		s.gsched.SetTaskSeq(cp.TaskSeq)
	}
	s.j, s.iters, s.t = cp.J, cp.Iterations, cp.T
	// Telemetry booked by the lost iterations is rolled back to the
	// checkpoint, so the redone iterations don't double-count; a checkpoint
	// without a snapshot (deserialized from JSON) skips the rollback.
	s.cfg.Telemetry.Rollback(cp.tel)
	// Timelines restart idle at the checkpoint time. Busy accounting and
	// recorded spans from the lost attempt are dropped with the reset —
	// observers (telemetry) stay attached.
	s.el.Reset()
	for _, tl := range s.el.Timelines() {
		tl.AdvanceTo(cp.T)
	}
	return nil
}

// RestoreNewest reinstalls the newest checkpoint in cps that verifies and
// restores cleanly, returning its index. A checkpoint corrupted at rest is
// skipped and the next older one tried — the fallback chain a real
// checkpointer keeps two generations for. When every candidate is unusable
// it returns an error wrapping ErrCheckpointsExhausted (with the newest
// generation's failure as the detail), so callers can distinguish "fall
// back to a clean restart" from a programming error.
func (s *Sim) RestoreNewest(cps []*Checkpoint) (int, error) {
	var firstErr error
	for i := len(cps) - 1; i >= 0; i-- {
		if err := s.Restore(cps[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return i, nil
	}
	if firstErr == nil {
		return -1, fmt.Errorf("%w: no checkpoints taken", ErrCheckpointsExhausted)
	}
	return -1, fmt.Errorf("%w: newest generation: %v", ErrCheckpointsExhausted, firstErr)
}
