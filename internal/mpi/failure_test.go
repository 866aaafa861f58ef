package mpi

import (
	"errors"
	"testing"

	"tianhe/internal/sim"
)

// A dead rank's pre-death messages are drained before the failure is
// reported, and the failure error carries bounded virtual suspicion.
func TestRecvFromOrFailDrainsThenFails(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	var deadAt sim.Time
	var failErr error
	var got []float64
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Advance(1.0)
			c.Send(1, 7, []float64{42})
			deadAt = c.Now()
			c.Die()
		case 1:
			var err error
			got, err = c.RecvFromOrFail(0, 7)
			if err != nil {
				t.Errorf("pre-death message lost: %v", err)
			}
			_, failErr = c.RecvFromOrFail(0, 8)
		}
	})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("payload = %v, want [42]", got)
	}
	var rf *RankFailedError
	if !errors.As(failErr, &rf) {
		t.Fatalf("err = %v, want *RankFailedError", failErr)
	}
	if rf.Rank != 0 || rf.DeadAt != deadAt {
		t.Fatalf("RankFailedError = %+v, deadAt %v", rf, deadAt)
	}
	if rf.SuspectAt < rf.DeadAt+SuspicionBound {
		t.Fatalf("suspicion not bounded: suspect %v < dead %v + bound %v", rf.SuspectAt, rf.DeadAt, SuspicionBound)
	}
}

// A receiver already blocked inside RecvFromOrFail must be woken by the
// death, not wedge forever (Die broadcasts every rank queue).
func TestDieWakesBlockedReceiver(t *testing.T) {
	w := NewWorld(Config{Size: 3})
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Give rank 2 a chance to park in cond.Wait first; correctness
			// does not depend on it (either interleaving must terminate).
			c.Send(1, 1, nil)
			c.Die()
		case 1:
			c.Recv(0, 1)
		case 2:
			if _, err := c.RecvFromOrFail(0, 9); err == nil {
				t.Error("expected failure error from dead rank 0")
			}
			if _, dead := c.world.DeadAt(0); !dead {
				t.Error("rank 0 not registered dead after suspicion")
			}
		}
	})
	if _, ok := w.DeadAt(0); !ok {
		t.Fatal("world lost the death registration")
	}
}

func TestRecvFromOrFailNeedsDirectedSource(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("RecvFromOrFail(Any) must panic")
		}
	}()
	w.comms[0].RecvFromOrFail(Any, 0)
}
