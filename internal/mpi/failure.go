package mpi

import (
	"fmt"

	"tianhe/internal/sim"
)

// Fail-stop process failure, in the ULFM spirit but simulated: a rank that
// dies calls Die and returns from its body; survivors learn about the death
// only through RecvFromOrFail, which reports a typed error instead of
// blocking forever on a source that will never send again. Suspicion is
// bounded and virtual — a survivor that suspects rank r advances its clock
// to the dead rank's last instant plus SuspicionBound, never consulting the
// wall clock, so failure detection replays bit-identically at any -par.

// SuspicionBound is the virtual detection latency charged to a survivor the
// moment it concludes a peer is dead: the modelled heartbeat timeout of the
// fabric's keepalive layer. It bounds suspicion — a rank is declared failed
// exactly SuspicionBound after its clock stopped, not "eventually".
const SuspicionBound sim.Time = 1e-3

// RankFailedError reports a receive from a dead rank.
type RankFailedError struct {
	Rank      int      // the dead source
	DeadAt    sim.Time // the victim's clock when it died
	SuspectAt sim.Time // the receiver's clock after charging SuspicionBound
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed at t=%.6fs (suspected at t=%.6fs)", e.Rank, float64(e.DeadAt), float64(e.SuspectAt))
}

// Die registers this rank as failed at its current virtual time and wakes
// every blocked receiver in the world so watchdogs can re-evaluate. The
// caller must return from its rank body immediately after; any message it
// sent before dying is still delivered (fail-stop, not Byzantine). Ordering
// makes detection deterministic: the registry write happens after the
// victim's final sends, so a receiver that observes the death has the
// victim's full message history in its queue already.
func (c *Comm) Die() {
	w := c.world
	w.deadMu.Lock()
	if w.dead == nil {
		w.dead = make(map[int]sim.Time)
	}
	if _, already := w.dead[c.rank]; already {
		w.deadMu.Unlock()
		panic(fmt.Sprintf("mpi: rank %d died twice", c.rank))
	}
	w.dead[c.rank] = c.clock.Now()
	w.deadMu.Unlock()
	if pr := w.probes; pr != nil {
		c.trace.Instant(c.track, "fault", "mpi.rank_died", c.clock.Now())
	}
	for r := 0; r < w.size; r++ {
		q := w.queues[r]
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// DeadAt reports whether rank r has died, and when.
func (w *World) DeadAt(r int) (sim.Time, bool) {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	t, ok := w.dead[r]
	return t, ok
}

// RecvFromOrFail is RecvFrom for a directed source on a fabric where the
// peer may be dead: it blocks until a matching message arrives OR the
// source is registered dead with no matching message pending, in which case
// it charges the bounded suspicion time and returns a *RankFailedError.
// Messages the victim sent before dying are always drained first, so the
// error means "src will never satisfy this receive", never "src is slow".
func (c *Comm) RecvFromOrFail(src, tag int) ([]float64, error) {
	if src == Any {
		panic("mpi: RecvFromOrFail needs a directed source")
	}
	q := c.world.queues[c.rank]
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for i, m := range q.pending {
			if m.src == src && m.tag == tag {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				if pr := c.world.probes; pr != nil {
					pr.recvs.Inc()
					if wait := m.arrival - c.clock.Now(); wait > 0 {
						c.waitSec += wait
					}
				}
				c.clock.Sync(m.arrival)
				return m.data, nil
			}
		}
		if deadAt, ok := c.world.DeadAt(src); ok {
			c.clock.Sync(deadAt + SuspicionBound)
			if pr := c.world.probes; pr != nil {
				c.trace.Instant(c.track, "fault", "mpi.rank_suspected", c.clock.Now())
			}
			return nil, &RankFailedError{Rank: src, DeadAt: deadAt, SuspectAt: c.clock.Now()}
		}
		q.cond.Wait()
	}
}
