// Package mpi provides the in-process message-passing substrate the
// distributed Linpack runs on: ranks execute in goroutines, messages travel
// over channels, and every communication advances per-rank virtual clocks
// using the InfiniBand model — a conservative logical-clock simulation. Send
// is buffered (non-blocking); Recv blocks until a matching (source, tag)
// message arrives and synchronizes the receiver's clock with the message's
// arrival time, so end-to-end virtual times come out as they would on the
// modelled fabric.
package mpi

import (
	"fmt"
	"sync"

	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// message is one in-flight transfer.
type message struct {
	src, tag int
	data     []float64
	arrival  sim.Time
}

// LinkFault is the fault-injection view of the fabric: given a message's
// endpoints, size and send time plus the healthy-model duration, it returns
// the perturbed duration and whether this transmission attempt is lost.
// Implementations must be deterministic per sender rank — each rank's
// goroutine queries its own send sequence in program order, so per-sender
// random streams keep the whole world reproducible under concurrency.
type LinkFault interface {
	AdjustMessage(src, dst int, bytes int64, sendAt, healthy sim.Time) (dur sim.Time, dropped bool)
}

// Retry defaults: a dropped message is retransmitted after the attempt's
// wire time plus a timeout that doubles per attempt, and the transport gives
// a message DefaultMaxSendAttempts transmissions before the link layer's
// own retransmission is assumed to get it through (the bound exists so a
// scenario cannot wedge the simulation — delivery is eventual, only late).
const (
	DefaultRetryTimeout    sim.Time = 250e-6
	DefaultMaxSendAttempts          = 6
)

// World is one communicator universe of size ranks.
type World struct {
	size            int
	net             perfmodel.Network
	ranksPerCabinet int
	fault           LinkFault // nil: healthy fabric (the fast path)
	retryTimeout    sim.Time
	maxAttempts     int
	probes          *worldProbes // nil when telemetry is disabled

	mu     sync.Mutex
	queues map[int]*rankQueue // keyed by destination rank
	comms  []*Comm

	// Failure registry (see failure.go): ranks that called Die, keyed to
	// the virtual instant their clock stopped. Nil until the first death.
	deadMu sync.Mutex
	dead   map[int]sim.Time
}

// worldProbes holds the communicator-wide metric handles: message counts,
// byte volumes, receive-side wait time, and the payload-size distribution.
// The ranks share the counters and the size histogram (atomics over whole
// numbers, which add exactly in any order); the float wait sum is
// accumulated per rank and folded into waitSec by World.Run.
type worldProbes struct {
	msgs, recvs    *telemetry.Counter
	bytes          *telemetry.Counter
	drops, retries *telemetry.Counter // fault-injected losses and resends
	waitSec        *telemetry.Gauge   // accumulated receive wait, virtual seconds
	sizes          *telemetry.Histogram
	tracer         *telemetry.Tracer
}

// msgSizeBuckets grade payload bytes from latency-bound to bandwidth-bound.
var msgSizeBuckets = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}

func newWorldProbes(tel *telemetry.Telemetry, label string) *worldProbes {
	if !tel.Enabled() {
		return nil
	}
	if label == "" {
		label = "mpi"
	}
	return &worldProbes{
		msgs:    tel.Counter(label + ".msgs_sent"),
		recvs:   tel.Counter(label + ".msgs_recv"),
		bytes:   tel.Counter(label + ".bytes_sent"),
		drops:   tel.Counter(label + ".msgs_dropped"),
		retries: tel.Counter(label + ".msgs_retried"),
		waitSec: tel.Gauge(label + ".recv_wait_seconds"),
		sizes:   tel.Histogram(label+".msg_bytes", msgSizeBuckets),
		tracer:  tel.Trace,
	}
}

// rankQueue buffers undelivered messages for one destination.
type rankQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
}

// Config describes a world.
type Config struct {
	// Size is the number of ranks.
	Size int
	// RanksPerCabinet controls when messages pay the second-level-switch
	// hop; 0 means a single cabinet (never).
	RanksPerCabinet int
	// Telemetry receives the communicator's probes (message counts, bytes,
	// receive wait time, size distribution) and per-rank send spans in the
	// trace. Nil disables instrumentation.
	Telemetry *telemetry.Telemetry
	// Label prefixes the communicator's metric names, so several worlds in
	// one process stay distinguishable; empty selects "mpi".
	Label string
	// LinkFault perturbs per-message delivery for fault injection; nil (the
	// default) keeps the fabric healthy with no per-message overhead.
	LinkFault LinkFault
	// RetryTimeout is the base retransmission timeout after a dropped
	// message; it doubles on every further attempt. Zero selects
	// DefaultRetryTimeout.
	RetryTimeout sim.Time
	// MaxSendAttempts bounds transmissions per message (the last one always
	// delivers). Zero selects DefaultMaxSendAttempts.
	MaxSendAttempts int
}

// NewWorld builds a communicator universe.
func NewWorld(cfg Config) *World {
	if cfg.Size <= 0 {
		panic("mpi: world size must be positive")
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = DefaultRetryTimeout
	}
	if cfg.MaxSendAttempts <= 0 {
		cfg.MaxSendAttempts = DefaultMaxSendAttempts
	}
	w := &World{
		size:            cfg.Size,
		net:             perfmodel.DefaultNetwork(),
		ranksPerCabinet: cfg.RanksPerCabinet,
		fault:           cfg.LinkFault,
		retryTimeout:    cfg.RetryTimeout,
		maxAttempts:     cfg.MaxSendAttempts,
		probes:          newWorldProbes(cfg.Telemetry, cfg.Label),
		queues:          make(map[int]*rankQueue, cfg.Size),
	}
	label := cfg.Label
	if label == "" {
		label = "mpi"
	}
	for r := 0; r < cfg.Size; r++ {
		q := &rankQueue{}
		q.cond = sync.NewCond(&q.mu)
		w.queues[r] = q
		c := &Comm{world: w, rank: r, clock: sim.NewClock()}
		if w.probes != nil {
			c.track = fmt.Sprintf("%s.rank%03d", label, r)
			c.trace = telemetry.NewTracer()
		}
		w.comms = append(w.comms, c)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// crossCabinet reports whether two ranks sit in different cabinets.
func (w *World) crossCabinet(a, b int) bool {
	if w.ranksPerCabinet <= 0 {
		return false
	}
	return a/w.ranksPerCabinet != b/w.ranksPerCabinet
}

// Comm is one rank's endpoint. All methods must be called from that rank's
// goroutine only.
type Comm struct {
	world *World
	rank  int
	clock *sim.Clock
	track string // trace track name, precomputed when instrumented
	// trace is this rank's private event recorder. Ranks run as goroutines,
	// so recording into the shared tracer would order events by the Go
	// scheduler — real time leaking into the virtual-time trace, invisible
	// to the race detector. Each rank records privately and World.Run merges
	// the per-rank traces into the shared tracer in rank order, which makes
	// the exported trace bytes deterministic.
	trace *telemetry.Tracer
	// waitSec is this rank's receive wait, virtual seconds. Float addition
	// does not associate, so adding into the shared gauge from every rank
	// goroutine would round in scheduler order; World.Run folds the per-rank
	// sums in rank order instead.
	waitSec sim.Time
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Now returns the rank's virtual time.
func (c *Comm) Now() sim.Time { return c.clock.Now() }

// Advance moves the rank's virtual clock forward by d seconds of local work.
func (c *Comm) Advance(d sim.Time) { c.clock.Advance(d) }

// Sync moves the rank's clock to at least t.
func (c *Comm) Sync(t sim.Time) { c.clock.Sync(t) }

// Send transfers data to dst with the given tag. The payload is copied, so
// the caller may reuse its buffer. Virtual cost: the sender pays the
// injection time; the message arrives at send time plus the network model's
// latency and serialization time. Under an injected LinkFault a dropped
// transmission costs the sender the wire time plus a retransmission timeout
// that doubles per attempt (bounded exponential backoff, all in virtual
// time); after MaxSendAttempts transmissions the message is delivered
// regardless — link-level delivery is eventual, only late.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst == c.rank {
		panic("mpi: send to self")
	}
	bytes := int64(8 * len(data))
	healthy := c.world.net.Seconds(bytes, c.world.crossCabinet(c.rank, dst))
	sendAt := c.clock.Now()
	dur := healthy
	attempts := 1
	if f := c.world.fault; f != nil {
		for {
			d, dropped := f.AdjustMessage(c.rank, dst, bytes, c.clock.Now(), healthy)
			dur = d
			if !dropped || attempts >= c.world.maxAttempts {
				break
			}
			// The lost attempt occupies the wire, then the sender waits out
			// the (doubling) retransmission timeout before trying again.
			backoff := c.world.retryTimeout * sim.Time(int(1)<<(attempts-1))
			c.clock.Advance(dur + backoff)
			attempts++
			if pr := c.world.probes; pr != nil {
				pr.drops.Inc()
				c.trace.Instant(c.track, "fault", "mpi.drop", c.clock.Now())
			}
		}
	}
	// Sender-side injection: the rank is busy for the serialization part.
	launchAt := c.clock.Now()
	c.clock.Advance(dur)
	msg := message{
		src:     c.rank,
		tag:     tag,
		data:    append([]float64(nil), data...),
		arrival: launchAt + dur,
	}
	q := c.world.queues[dst]
	q.mu.Lock()
	q.pending = append(q.pending, msg)
	q.cond.Broadcast()
	q.mu.Unlock()
	if pr := c.world.probes; pr != nil {
		pr.msgs.Inc()
		pr.bytes.Add(bytes)
		pr.sizes.Observe(float64(bytes))
		if attempts > 1 {
			pr.retries.Add(int64(attempts - 1))
		}
		c.trace.Span(c.track, "mpi", "send", sendAt, launchAt+dur)
	}
}

// Recv blocks until a message from src with the given tag arrives, returning
// its payload and synchronizing this rank's clock with the arrival time.
// src == Any matches any source.
func (c *Comm) Recv(src, tag int) []float64 {
	data, _ := c.RecvFrom(src, tag)
	return data
}

// Any matches any source rank in Recv/RecvFrom.
const Any = -1

// RecvFrom is Recv returning the actual source rank as well.
func (c *Comm) RecvFrom(src, tag int) ([]float64, int) {
	q := c.world.queues[c.rank]
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for i, m := range q.pending {
			if (src == Any || m.src == src) && m.tag == tag {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				if pr := c.world.probes; pr != nil {
					pr.recvs.Inc()
					// Receive-side wait: how long this rank's virtual clock
					// had to jump forward to meet the message.
					if wait := m.arrival - c.clock.Now(); wait > 0 {
						c.waitSec += wait
					}
				}
				c.clock.Sync(m.arrival)
				return m.data, m.src
			}
		}
		q.cond.Wait()
	}
}

// Bcast distributes data from root over a binomial tree; every rank must
// call it with the same tag. Non-roots pass nil and receive the payload.
func (c *Comm) Bcast(root, tag int, data []float64) []float64 {
	size := c.world.size
	if size == 1 {
		return data
	}
	// Rotate ranks so the root is virtual rank 0, then run the standard
	// binomial tree on virtual ranks.
	vrank := (c.rank - root + size) % size
	toReal := func(v int) int { return (v + root) % size }
	if vrank != 0 {
		// Receive from the parent first.
		parent := vrank &^ lowestBit(vrank)
		data = c.Recv(toReal(parent), tag)
	}
	// Forward to children: vrank + 2^k for 2^k > lowestBit(vrank) while in
	// range. Root (vrank 0) sends to 1, 2, 4, ...
	limit := lowestBit(vrank)
	if vrank == 0 {
		limit = size
	}
	for bit := 1; bit < limit && vrank+bit < size; bit <<= 1 {
		c.Send(toReal(vrank+bit), tag, data)
	}
	return data
}

func lowestBit(v int) int {
	if v == 0 {
		return 0
	}
	return v & (-v)
}

// Barrier synchronizes all ranks: no rank leaves before every rank entered.
// Implemented as a gather to rank 0 followed by a broadcast, with per-hop
// network costs.
func (c *Comm) Barrier(tag int) {
	if c.world.size == 1 {
		return
	}
	if c.rank == 0 {
		for r := 1; r < c.world.size; r++ {
			c.Recv(Any, tag)
		}
	} else {
		c.Send(0, tag, nil)
	}
	c.Bcast(0, tag+1, nil)
}

// AllreduceMax returns the maximum of x across all ranks, synchronizing
// clocks along the reduction tree.
func (c *Comm) AllreduceMax(tag int, x float64) float64 {
	if c.rank == 0 {
		m := x
		for r := 1; r < c.world.size; r++ {
			v, _ := c.RecvFrom(Any, tag)
			if v[0] > m {
				m = v[0]
			}
		}
		out := c.Bcast(0, tag+1, []float64{m})
		return out[0]
	}
	c.Send(0, tag, []float64{x})
	out := c.Bcast(0, tag+1, nil)
	return out[0]
}

// Run launches fn on every rank in its own goroutine and waits for all of
// them, returning the largest final virtual clock (the parallel makespan).
// When the world is instrumented, the per-rank trace events and receive-wait
// sums are folded into the shared tracer and gauge in rank order after the
// ranks joined, so the exported trace and metrics are deterministic no
// matter how the goroutines were scheduled.
func (w *World) Run(fn func(c *Comm)) sim.Time {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(w.comms[r])
	}
	wg.Wait()
	if w.probes != nil {
		for _, c := range w.comms {
			w.probes.tracer.Merge(c.trace)
			c.trace = telemetry.NewTracer() // a second Run must not re-merge
			if c.waitSec > 0 {
				w.probes.waitSec.Add(c.waitSec)
				c.waitSec = 0
			}
		}
	}
	var end sim.Time
	for _, c := range w.comms {
		if t := c.clock.Now(); t > end {
			end = t
		}
	}
	return end
}
