package mpi

import (
	"bytes"
	"math"
	"testing"

	"tianhe/internal/telemetry"
)

// TestRetriedMessageDeliveredExactlyOnceInOrder is the regression test for
// the retry/backoff matching audit: a message dropped by the LinkFault and
// retransmitted must arrive exactly once, and it must not be overtaken by a
// later message from the same sender with the same (src, tag) — the sender
// only enqueues the final successful transmission, and its program order
// plus monotone arrival times keep the receiver's first-match scan in send
// order.
func TestRetriedMessageDeliveredExactlyOnceInOrder(t *testing.T) {
	tel := telemetry.New()
	w := NewWorld(Config{Size: 2, LinkFault: &dropFirstK{k: 3}, Telemetry: tel})
	const tag = 7
	var got [][]float64
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// First send retries three times; the second (same src, same
			// tag) follows immediately and must not overtake it.
			c.Send(1, tag, []float64{1})
			c.Send(1, tag, []float64{2})
		case 1:
			got = append(got, c.Recv(0, tag), c.Recv(0, tag))
		}
	})
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("messages reordered or duplicated: got %v, want [[1] [2]]", got)
	}
	if n := tel.Counter("mpi.msgs_sent").Value(); n != 2 {
		t.Fatalf("exactly one delivery per message: msgs_sent = %d, want 2", n)
	}
	if n := tel.Counter("mpi.msgs_recv").Value(); n != 2 {
		t.Fatalf("msgs_recv = %d, want 2", n)
	}
	if n := tel.Counter("mpi.msgs_retried").Value(); n != 3 {
		t.Fatalf("msgs_retried = %d, want 3", n)
	}
	// Nothing may be left pending: a duplicate delivery would sit in the
	// destination queue.
	q := w.queues[1]
	q.mu.Lock()
	pending := len(q.pending)
	q.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d duplicate message(s) left in the receive queue", pending)
	}
}

// TestInstrumentedWorldTraceDeterministic guards the per-rank tracer merge:
// ranks run as goroutines, so a shared tracer would record send spans in
// scheduler order and the exported trace would differ run to run even
// though every virtual timestamp is identical. With per-rank traces merged
// in rank order at the end of Run, the trace bytes are reproducible.
func TestInstrumentedWorldTraceDeterministic(t *testing.T) {
	run := func() []byte {
		tel := telemetry.New()
		w := NewWorld(Config{Size: 8, RanksPerCabinet: 4, LinkFault: &dropFirstK{k: 1}, Telemetry: tel})
		w.Run(func(c *Comm) {
			payload := make([]float64, 512)
			for r := 0; r < 4; r++ {
				c.Bcast(0, 100+r, payload)
				c.AllreduceMax(200+r, float64(c.Rank()))
				c.Barrier(300 + r)
			}
		})
		var buf bytes.Buffer
		if err := tel.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run()
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < 5; i++ {
		if got := run(); !bytes.Equal(got, want) {
			t.Fatalf("run %d: instrumented world trace differs between identical runs", i)
		}
	}
}

// TestRecvWaitSumDeterministic guards the per-rank wait fold: every rank
// goroutine waits on receives, and float addition does not associate, so a
// wait sum shared by the ranks would round in scheduler order. Each rank
// keeps its own sum and Run folds them in rank order, so the gauge repeats
// to the bit.
func TestRecvWaitSumDeterministic(t *testing.T) {
	const ranks, rounds = 16, 12
	run := func() uint64 {
		tel := telemetry.New()
		w := NewWorld(Config{Size: ranks, RanksPerCabinet: ranks / 2, LinkFault: &dropFirstK{k: 2}, Telemetry: tel})
		w.Run(func(c *Comm) {
			payload := make([]float64, 4096)
			for r := 0; r < rounds; r++ {
				c.Advance(50e-6 * float64(1+(c.Rank()+r)%3)) // uneven compute between collectives
				c.Bcast(0, 100+r, payload)
				c.AllreduceMax(200+r, float64(c.Rank()))
				c.Barrier(300 + r)
			}
		})
		return math.Float64bits(tel.Gauge("mpi.recv_wait_seconds").Value())
	}
	want := run()
	if want == 0 {
		t.Fatal("no receive wait recorded")
	}
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: recv_wait_seconds bits %x, first run %x", i, got, want)
		}
	}
}
