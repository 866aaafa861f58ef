package mpi

import (
	"testing"

	"tianhe/internal/perfmodel"
)

func TestSendRecvPayload(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("payload %v", got)
			}
		}
	})
}

func TestRecvSynchronizesClock(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	var recvTime float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Advance(5) // rank 0 works for 5 virtual seconds first
			c.Send(1, 1, []float64{42})
		} else {
			c.Recv(0, 1)
			recvTime = c.Now()
		}
	})
	if recvTime < 5 {
		t.Fatalf("receiver clock %v must include the sender's work", recvTime)
	}
}

func TestMessageCostModel(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	var arrive float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 1<<20)) // 8 MiB
		} else {
			c.Recv(0, 1)
			arrive = c.Now()
		}
	})
	want := perfmodel.DefaultNetwork().Seconds(8<<20, false)
	if diff := arrive - want; diff < 0 || diff > 1e-12 {
		t.Fatalf("arrival %v, want %v", arrive, want)
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 2, []float64{2})
			c.Send(1, 1, []float64{1})
		} else {
			// Receive in the opposite order of sending: tags must match.
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload %v", got)
			}
			if got := c.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 payload %v", got)
			}
		}
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := c.Recv(0, 3); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestRecvAny(t *testing.T) {
	w := NewWorld(Config{Size: 3})
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, src := c.RecvFrom(Any, 4)
				seen[src] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		default:
			c.Send(0, 4, []float64{float64(c.Rank())})
		}
	})
}

func TestBcastAllRanksReceive(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 13} {
		w := NewWorld(Config{Size: size})
		payload := []float64{3.14, 2.71}
		w.Run(func(c *Comm) {
			var got []float64
			if c.Rank() == 2%size {
				got = c.Bcast(2%size, 9, payload)
			} else {
				got = c.Bcast(2%size, 9, nil)
			}
			if len(got) != 2 || got[0] != 3.14 {
				t.Errorf("size %d rank %d: bcast payload %v", size, c.Rank(), got)
			}
		})
	}
}

func TestBcastClockPropagation(t *testing.T) {
	w := NewWorld(Config{Size: 8})
	clocks := make([]float64, 8)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Advance(1)
			c.Bcast(0, 1, []float64{1})
		} else {
			c.Bcast(0, 1, nil)
		}
		clocks[c.Rank()] = c.Now()
	})
	for r := 1; r < 8; r++ {
		if clocks[r] <= 1 {
			t.Fatalf("rank %d clock %v must trail the root's work", r, clocks[r])
		}
	}
}

func TestBarrier(t *testing.T) {
	w := NewWorld(Config{Size: 4})
	clocks := make([]float64, 4)
	w.Run(func(c *Comm) {
		c.Advance(float64(c.Rank())) // rank r works r seconds
		c.Barrier(100)
		clocks[c.Rank()] = c.Now()
	})
	for r := 0; r < 4; r++ {
		if clocks[r] < 3 {
			t.Fatalf("rank %d left the barrier at %v, before the slowest entered", r, clocks[r])
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	w := NewWorld(Config{Size: 5})
	w.Run(func(c *Comm) {
		got := c.AllreduceMax(50, float64(c.Rank()*10))
		if got != 40 {
			t.Errorf("rank %d allreduce max %v, want 40", c.Rank(), got)
		}
	})
}

func TestCrossCabinetCost(t *testing.T) {
	near := NewWorld(Config{Size: 2, RanksPerCabinet: 2})
	far := NewWorld(Config{Size: 2, RanksPerCabinet: 1})
	var tNear, tFar float64
	near.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 1)
			tNear = c.Now()
		}
	})
	far.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 1)
			tFar = c.Now()
		}
	})
	if tFar <= tNear {
		t.Fatalf("cross-cabinet message (%v) must cost more than intra (%v)", tFar, tNear)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := NewWorld(Config{Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("send to self should panic")
		}
	}()
	w.comms[0].Send(0, 1, nil)
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world should panic")
		}
	}()
	NewWorld(Config{Size: 0})
}

func TestRunReturnsMakespan(t *testing.T) {
	w := NewWorld(Config{Size: 3})
	end := w.Run(func(c *Comm) {
		c.Advance(float64(c.Rank()) * 2)
	})
	if end != 4 {
		t.Fatalf("makespan %v, want 4", end)
	}
}

func TestPayloadIsolation(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, 1, buf)
			buf[0] = 99 // mutating after send must not affect the receiver
		} else {
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("payload aliased sender buffer: %v", got)
			}
		}
	})
}
