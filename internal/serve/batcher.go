package serve

import (
	"tianhe/internal/sim"
)

// batchKey identifies the jobs that may coalesce into one hybrid call:
// they must share the kind and the (N, K) dimensions so their row blocks
// stack into a single m x n x k operation.
type batchKey struct {
	kind Kind
	n, k int
}

func (j *Job) key() batchKey {
	return batchKey{kind: j.Kind, n: j.N, k: j.K}
}

// batch is one coalesced hybrid call in assembly, awaiting dispatch, or
// executing.
type batch struct {
	id   uint64
	key  batchKey
	jobs []Job
	rows int
	// opened is the virtual time the first job entered; seq tags the
	// seal-window event so a stale timer cannot seal a successor batch
	// that reuses the key.
	opened sim.Time
	seq    uint64
	// drained counts device-outage drains of this sealed batch.
	drained int
	// start, end and gsplit are the facts of the batch's latest dispatch:
	// when it was booked, when its hybrid call ends, and the adaptive split
	// it ran with. Each job's Result is built from them at retirement.
	start, end sim.Time
	gsplit     float64
}

// batchQueue is the FIFO of sealed batches awaiting a worker. The live
// entries are q.items[q.head:]: popping advances head instead of re-slicing,
// and a requeue at the front steps it back, so neither moves the queue. The
// popped prefix (one nil pointer per batch) is reclaimed whenever the queue
// runs empty.
type batchQueue struct {
	items []*batch
	head  int
}

func (q *batchQueue) len() int { return len(q.items) - q.head }

func (q *batchQueue) front() *batch { return q.items[q.head] }

func (q *batchQueue) pushBack(b *batch) { q.items = append(q.items, b) }

func (q *batchQueue) popFront() *batch {
	b := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return b
}

// pushFront re-enters a batch ahead of everything queued. Only a batch that
// was popped comes back this way, so there is normally a vacated slot before
// head; the shift is the fallback for a queue that emptied in between.
func (q *batchQueue) pushFront(b *batch) {
	if q.head == 0 {
		q.items = append(q.items, nil)
		copy(q.items[1:], q.items)
		q.head = 1
	}
	q.head--
	q.items[q.head] = b
}

// policy is the adaptive batching state for one batch key — the serving
// analog of one database_g bucket: where the partitioner learns the split
// that balances a shape across devices, the batcher learns the batch size
// and assembly window that balance queueing delay against call overhead
// for a shape's measured arrival and service rates.
type policy struct {
	// ewmaArrive is the learned arrival rate (jobs/s) and lastArrive the
	// previous arrival instant feeding it.
	ewmaArrive float64
	lastArrive sim.Time
	arrived    bool
	// ewmaService is the learned per-batch service time (virtual s).
	ewmaService float64
	served      bool
	// target is the occupancy at which a batch seals without waiting;
	// window bounds how long the first job of a batch may wait for
	// companions.
	target int
	window sim.Time
}

// batcherAlpha is the EWMA smoothing factor of both learned rates.
const batcherAlpha = 0.2

// Batcher coalesces admitted jobs into batches, adapting per-key batch
// size and assembly window to the measured service rate: the target
// occupancy covers the backlog that accrues during one batch service
// (target ≈ arrival rate × service time, the classic throughput-optimal
// batching point), and the window is half the expected fill time so a
// lull never holds a batch longer than batching can repay. Both learn
// from virtual-time measurements only, so replays are bit-identical.
type Batcher struct {
	maxBatch int
	maxRows  int
	minWin   sim.Time
	maxWin   sim.Time

	open     map[batchKey]*batch
	policies map[batchKey]*policy
	nextID   uint64
	nextSeq  uint64
}

// newBatcher builds a batcher with the given occupancy/row caps and window
// bounds (already defaulted by the server config).
func newBatcher(maxBatch, maxRows int, minWin, maxWin sim.Time) *Batcher {
	return &Batcher{
		maxBatch: maxBatch,
		maxRows:  maxRows,
		minWin:   minWin,
		maxWin:   maxWin,
		open:     make(map[batchKey]*batch),
		policies: make(map[batchKey]*policy),
	}
}

func (ba *Batcher) policyFor(key batchKey) *policy {
	p, ok := ba.policies[key]
	if !ok {
		p = &policy{target: 1, window: ba.minWin}
		ba.policies[key] = p
	}
	return p
}

// observeArrival feeds one arrival instant into a key's learned arrival
// rate.
func (ba *Batcher) observeArrival(p *policy, t sim.Time) {
	if p.arrived && t > p.lastArrive {
		inst := 1 / (t - p.lastArrive)
		if p.ewmaArrive == 0 {
			p.ewmaArrive = inst
		} else {
			p.ewmaArrive += batcherAlpha * (inst - p.ewmaArrive)
		}
	}
	p.lastArrive = t
	p.arrived = true
	ba.retune(p)
}

// observeService feeds one completed batch's service time back into the
// key's policy — the serving counterpart of the partitioner's
// measured-rate feedback loop.
func (ba *Batcher) observeService(key batchKey, service sim.Time) {
	p := ba.policyFor(key)
	if service < 0 {
		service = 0
	}
	if !p.served {
		p.ewmaService = service
		p.served = true
	} else {
		p.ewmaService += batcherAlpha * (service - p.ewmaService)
	}
	ba.retune(p)
}

// retune recomputes the key's target occupancy and assembly window from
// the learned rates.
func (ba *Batcher) retune(p *policy) {
	if p.ewmaArrive <= 0 || p.ewmaService <= 0 {
		return
	}
	target := int(p.ewmaArrive*p.ewmaService + 0.999)
	if target < 1 {
		target = 1
	}
	if target > ba.maxBatch {
		target = ba.maxBatch
	}
	p.target = target
	window := sim.Time(float64(target) / p.ewmaArrive / 2)
	if window < ba.minWin {
		window = ba.minWin
	}
	if window > ba.maxWin {
		window = ba.maxWin
	}
	p.window = window
}

// sealTimer asks the server to schedule a seal-window event: if the batch
// identified by (key, seq) is still open at `at`, it seals then.
type sealTimer struct {
	key batchKey
	seq uint64
	at  sim.Time
}

// add places an admitted job into the open batch for its key, opening one
// if needed. It returns the batches that sealed as a consequence, in seal
// order with the unused entries nil — the open batch the job could not
// stack into under the row cap, and/or the job's own batch once it reaches
// the occupancy target, the occupancy cap, or the row cap — and, when the
// job opened a fresh batch that is still assembling (armed), the
// seal-window timer the server must schedule.
func (ba *Batcher) add(job Job, now sim.Time) (sealed [2]*batch, timer sealTimer, armed bool) {
	key := job.key()
	pol := ba.policyFor(key)
	ba.observeArrival(pol, now)
	n := 0
	b := ba.open[key]
	if b != nil && b.rows+job.M > ba.maxRows {
		sealed[n] = b
		n++
		b = nil
	}
	if b == nil {
		ba.nextID++
		ba.nextSeq++
		b = &batch{id: ba.nextID, key: key, opened: now, seq: ba.nextSeq}
		ba.open[key] = b
		timer, armed = sealTimer{key: key, seq: b.seq, at: now + pol.window}, true
	}
	b.jobs = append(b.jobs, job)
	b.rows += job.M
	if len(b.jobs) >= pol.target || len(b.jobs) >= ba.maxBatch || b.rows >= ba.maxRows {
		delete(ba.open, key)
		sealed[n] = b
		armed = false
	}
	return sealed, timer, armed
}

// sealIf closes the open batch identified by (key, seq) if it is still
// open — the seal-window timer path. A stale seq (the batch sealed full,
// or a successor reuses the key) seals nothing.
func (ba *Batcher) sealIf(key batchKey, seq uint64) *batch {
	b, ok := ba.open[key]
	if !ok || b.seq != seq {
		return nil
	}
	delete(ba.open, key)
	return b
}

// window returns the current assembly window for a key.
func (ba *Batcher) window(key batchKey) sim.Time {
	return ba.policyFor(key).window
}
