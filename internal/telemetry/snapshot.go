package telemetry

// Snapshot / Rollback exist for checkpoint-restart simulations
// (internal/linpacksim): a failure restore must also roll the run's
// telemetry back to the checkpoint, or the spans and counters booked by the
// lost (and later re-executed) iterations would double-count against the
// run's totals. A snapshot captures metric values and the trace length; a
// rollback restores captured metrics IN PLACE — probes hold metric pointers
// fetched once at instrumentation time, so the objects must never be
// replaced — zeroes metrics created after the snapshot, and truncates the
// trace.

// gaugeState is one gauge's captured value and write mode.
type gaugeState struct {
	bits uint64
	op   uint32
}

// histState is one histogram's captured distribution. The sum is kept as
// raw float bits (like gaugeState) so capture and restore are pure atomic
// loads/stores.
type histState struct {
	counts  []int64
	sumBits uint64
	count   int64
}

// Snapshot is a point-in-time capture of a bundle's state, usable with
// Rollback on the same bundle.
type Snapshot struct {
	counters map[*Counter]int64
	gauges   map[*Gauge]gaugeState
	hists    map[*Histogram]histState
	events   int
	tracks   int
}

// Snapshot captures the bundle's current metric values and trace length.
// A nil bundle returns a nil snapshot (and Rollback(nil) is a no-op), so
// uninstrumented runs pay nothing.
func (t *Telemetry) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	s := &Snapshot{
		counters: make(map[*Counter]int64),
		gauges:   make(map[*Gauge]gaugeState),
		hists:    make(map[*Histogram]histState),
	}
	if r := t.Metrics; r != nil {
		r.mu.Lock()
		for _, c := range r.counters {
			s.counters[c] = c.v.Load()
		}
		for _, g := range r.gauges {
			s.gauges[g] = gaugeState{bits: g.bits.Load(), op: g.op.Load()}
		}
		for _, h := range r.histograms {
			hs := histState{
				counts:  make([]int64, len(h.counts)),
				sumBits: h.sum.bits.Load(),
				count:   h.count.Load(),
			}
			for i := range h.counts {
				hs.counts[i] = h.counts[i].Load()
			}
			s.hists[h] = hs
		}
		r.mu.Unlock()
	}
	if tr := t.Trace; tr != nil {
		tr.mu.Lock()
		s.events = len(tr.events)
		s.tracks = len(tr.order)
		tr.mu.Unlock()
	}
	return s
}

// Rollback restores the bundle to the snapshot: captured metrics get their
// values back in place, metrics created after the snapshot are zeroed (the
// objects stay — probes hold their pointers), and the trace is truncated to
// the snapshot's length, dropping tracks registered since. No-op when the
// bundle or the snapshot is nil.
func (t *Telemetry) Rollback(s *Snapshot) {
	if t == nil || s == nil {
		return
	}
	if r := t.Metrics; r != nil {
		r.mu.Lock()
		for _, c := range r.counters {
			c.v.Store(s.counters[c]) // zero when created after the snapshot
		}
		for _, g := range r.gauges {
			gs := s.gauges[g]
			g.bits.Store(gs.bits)
			g.op.Store(gs.op)
		}
		for _, h := range r.histograms {
			hs, ok := s.hists[h]
			for i := range h.counts {
				var v int64
				if ok {
					v = hs.counts[i]
				}
				h.counts[i].Store(v)
			}
			h.sum.bits.Store(hs.sumBits) // zero bits (0.0) when created after the snapshot
			if !ok {
				h.sum.op.Store(gaugeUntouched)
			}
			h.count.Store(hs.count)
		}
		r.mu.Unlock()
	}
	if tr := t.Trace; tr != nil {
		tr.mu.Lock()
		if s.events < len(tr.events) {
			tr.events = tr.events[:s.events]
		}
		if s.tracks < len(tr.order) {
			for _, track := range tr.order[s.tracks:] {
				delete(tr.tids, track)
			}
			tr.order = tr.order[:s.tracks]
		}
		tr.mu.Unlock()
	}
}
