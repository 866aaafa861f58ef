package serve

import (
	"fmt"
	"slices"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/hybrid"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Config describes one solver service instance.
type Config struct {
	// Seed drives every deterministic stream of the service: worker element
	// noise and fault-injection decisions derive from it by name.
	Seed uint64
	// Workers is the dispatcher pool size — one compute element plus one
	// fault-aware adaptive hybrid runner each. 0 selects DefaultWorkers.
	Workers int
	// QueueCap bounds the admission queue: jobs admitted but not yet
	// dispatched. At the bound new arrivals are rejected with a
	// retry-after estimate — the queue never grows without bound.
	// 0 selects DefaultQueueCap.
	QueueCap int
	// Limits bound admissible job shapes (zero value: package defaults).
	Limits Limits
	// Scenario optionally names a fault scenario (see fault.Scenarios)
	// injected into the pool; ScenarioHorizon scales its windows, the way
	// experiments.FaultSweep scales them to a run's healthy makespan. StruckWorkers is
	// how many of the pool's elements the scenario hits (0 selects 1;
	// negative strikes every element).
	Scenario        string
	ScenarioHorizon sim.Time
	StruckWorkers   int
	// Telemetry receives the service's probes; nil disables them.
	Telemetry *telemetry.Telemetry
}

// Defaults for the zero Config fields.
const (
	DefaultWorkers  = 4
	DefaultQueueCap = 2048
)

// The batching envelope: occupancy is capped at maxBatchJobs jobs and
// DefaultMaxRows stacked rows (the GPU's 2D resource limit, which is also
// the most one job may contribute), and the adaptive assembly window stays
// within [minBatchWindow, maxBatchWindow].
const (
	maxBatchJobs   = 64
	minBatchWindow = sim.Time(200e-6)
	maxBatchWindow = sim.Time(20e-3)
)

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueCap == 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.StruckWorkers == 0 {
		c.StruckWorkers = 1
	}
	return c
}

// worker is one dispatcher slot: a compute element and its hybrid runner.
type worker struct {
	idx  int
	el   *element.Element
	run  *hybrid.Runner
	busy bool
	// parked marks a worker waiting out a device outage after draining a
	// batch back into the queue; it rejoins the pool at the restore event.
	parked bool
	// dead marks a permanent element failure (element-fail scenarios): the
	// worker never rejoins the pool. Its in-flight batch, if any, was
	// requeued at the front when the death struck.
	dead bool
	// inflight is the batch currently executing on the worker, and epoch
	// invalidates its scheduled completion when a death aborts it — the
	// completion event for a dead dispatch must retire nothing.
	inflight *batch
	epoch    int
	// The worker's event handlers, bound once in New so that scheduling a
	// completion (argument: the dispatch's epoch), a restore or a death
	// allocates nothing.
	done, restore, die func(int)
}

// Stats aggregates one service run.
type Stats struct {
	// Offered counts every submission; Admitted the ones past admission
	// control; Rejected the bounded-queue rejections. Completed counts
	// finished jobs — the service has no failure path for admitted jobs,
	// so after a drained run Completed == Admitted.
	Offered, Admitted, Rejected, Completed int
	// Batches counts dispatched hybrid calls; Drains counts batches a
	// device outage drained back into the queue before execution.
	Batches, Drains int
	// Deaths counts permanent element failures injected into the pool
	// (element-fail scenarios). A dead worker leaves the pool for good and
	// its in-flight batch requeues at the queue front, so the survivors
	// retire every admitted job — deaths shrink capacity, they never fail
	// jobs.
	Deaths int
	// QueuePeak is the deepest the admission queue got.
	QueuePeak int
	// LastEnd is the completion time of the last finished job.
	LastEnd sim.Time
}

// Server is the deterministic virtual-time core of the solver service.
// All state mutation happens on its single-threaded event loop; the only
// concurrency in a serve run is across sweep points, never inside one.
type Server struct {
	cfg Config
	lim Limits
	eng *sim.Engine
	ba  *Batcher

	workers []*worker
	ready   batchQueue // sealed batches awaiting a worker, FIFO; drains re-enter at the front
	waiting int        // jobs admitted but not yet dispatched

	// Each Result is stored once, in completion order. Job ids are dense
	// (1, 2, ...), so the lookup by id is a slice indexed by id-1 holding
	// the Result's 1-based position in results (0 while unresolved).
	nextJobID uint64
	results   []Result
	resultAt  []int
	stats     Stats

	probes *serverProbes
}

// serverProbes holds the service's metric handles. Tenant probes register
// lazily on a tenant's first job (the PR 5 pattern), so runs that never
// serve keep their metric dumps byte-identical.
type serverProbes struct {
	tel *telemetry.Telemetry

	offered, admitted, rejected *telemetry.Counter
	completed, batches, drains  *telemetry.Counter
	depth, depthPeak            *telemetry.Gauge
	occupancy                   *telemetry.Histogram
	window                      *telemetry.Gauge
	latency                     *telemetry.Histogram

	tenants map[string]*tenantProbes
}

// tenantProbes are one tenant's lazily registered metrics.
type tenantProbes struct {
	completed, rejected *telemetry.Counter
	latency             *telemetry.Histogram
}

// occupancyBuckets grade batch occupancy up to the default cap.
var occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// latencyBuckets cover serving latencies from 10 µs to 1000 s of virtual
// time, four buckets per decade, so p99 stays answerable at sub-millisecond
// scale (see telemetry.ExpBuckets).
var latencyBuckets = telemetry.ExpBuckets(1e-5, 1e3, 4)

func (pr *serverProbes) tenant(name string) *tenantProbes {
	tp, ok := pr.tenants[name]
	if !ok {
		prefix := "serve.tenant." + name
		tp = &tenantProbes{
			completed: pr.tel.Counter(prefix + ".completed"),
			rejected:  pr.tel.Counter(prefix + ".rejected"),
			latency:   pr.tel.Histogram(prefix+".latency_seconds", latencyBuckets),
		}
		pr.tenants[name] = tp
	}
	return tp
}

// New assembles a solver service. The error paths are configuration
// mistakes: an unknown fault scenario or a scenario without a horizon.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	lim := cfg.Limits.withDefaults()
	s := &Server{
		cfg: cfg,
		lim: lim,
		eng: sim.NewEngine(),
	}
	s.ba = newBatcher(maxBatchJobs, DefaultMaxRows, minBatchWindow, maxBatchWindow, func(b *batch) {
		s.ready.pushBack(b)
		s.pump()
	})
	if tel := cfg.Telemetry; tel.Enabled() {
		s.probes = &serverProbes{
			tel:       tel,
			offered:   tel.Counter("serve.jobs.offered"),
			admitted:  tel.Counter("serve.jobs.admitted"),
			rejected:  tel.Counter("serve.jobs.rejected"),
			completed: tel.Counter("serve.jobs.completed"),
			batches:   tel.Counter("serve.batches"),
			drains:    tel.Counter("serve.drains"),
			depth:     tel.Gauge("serve.queue.depth"),
			depthPeak: tel.Gauge("serve.queue.peak"),
			occupancy: tel.Histogram("serve.batch.occupancy", occupancyBuckets),
			window:    tel.Gauge("serve.batch.window_seconds.last"),
			latency:   tel.Histogram("serve.latency_seconds", latencyBuckets),
			tenants:   make(map[string]*tenantProbes),
		}
	}

	scenario := cfg.Scenario != "" && cfg.Scenario != "healthy"
	if scenario && cfg.ScenarioHorizon <= 0 {
		return nil, fmt.Errorf("serve: scenario %q needs a positive ScenarioHorizon", cfg.Scenario)
	}
	struck := cfg.StruckWorkers
	if struck < 0 || struck > cfg.Workers {
		struck = cfg.Workers
	}
	maxWork := 2 * DefaultMaxRows * float64(lim.MaxDim) * float64(lim.MaxDim)
	deaths := 0
	for i := 0; i < cfg.Workers; i++ {
		elSeed := sim.NewStream(cfg.Seed, fmt.Sprintf("serve/worker%d", i)).Uint64()
		el := element.New(element.Config{Seed: elSeed, Virtual: true})
		part := adaptive.NewAdaptive(64, maxWork, el.InitialGSplit(), el.CPU.NumCores())
		run := hybrid.New(el, element.ACMLGBoth, part)
		// The pool is always fault-aware: a lost device falls back to the
		// cores (with database_g quarantine and post-restore re-warm)
		// rather than poisoning the service.
		run.EnableGPUFaultFallback()
		w := s.newWorker(i, el, run)
		if scenario && i < struck {
			inSeed := sim.NewStream(cfg.Seed, fmt.Sprintf("serve/fault%d", i)).Uint64()
			in, err := fault.NewScenario(cfg.Scenario, cfg.ScenarioHorizon, inSeed)
			if err != nil {
				return nil, err
			}
			fault.Attach(in, el)
			in.Instrument(cfg.Telemetry)
			// Element deaths are a dispatcher concern, not a device one:
			// fault.Attach wires the GPU and link faults into the element,
			// while the ElementFail schedule lands on the event loop as
			// permanent worker removals.
			for _, ev := range in.ElementFailures() {
				deaths++
				s.eng.AtArg(ev.Start, w.die, 0)
			}
		}
		if cfg.Telemetry.Enabled() {
			run.Instrument(cfg.Telemetry)
		}
		s.workers = append(s.workers, w)
	}
	if deaths > 0 && struck >= cfg.Workers {
		return nil, fmt.Errorf("serve: scenario %q kills all %d workers — an element-fail scenario must leave a survivor to drain the queue", cfg.Scenario, cfg.Workers)
	}
	return s, nil
}

// newWorker builds worker i around its element and runner and binds its
// event handlers.
func (s *Server) newWorker(i int, el *element.Element, run *hybrid.Runner) *worker {
	w := &worker{idx: i, el: el, run: run}
	w.done = func(epoch int) {
		// An element death aborts the dispatch and bumps the epoch; the
		// stale completion then retires nothing — the batch already
		// requeued.
		if w.epoch == epoch {
			s.complete(w.inflight, w)
		}
	}
	w.restore = func(int) {
		w.parked = false
		s.pump()
	}
	w.die = func(int) { s.failWorker(w) }
	return w
}

// Now returns the current virtual time.
func (s *Server) Now() sim.Time { return s.eng.Now() }

// Stats returns the run's aggregate counters so far.
func (s *Server) Stats() Stats { return s.stats }

// Results returns every recorded result in completion order.
func (s *Server) Results() []Result { return s.results }

// Result returns the outcome of the given job id, if resolved.
func (s *Server) Result(id uint64) (Result, bool) {
	if id == 0 || id > uint64(len(s.resultAt)) || s.resultAt[id-1] == 0 {
		return Result{}, false
	}
	return s.results[s.resultAt[id-1]-1], true
}

// SubmitAt validates a request and schedules its arrival at the given
// virtual time (which must not precede the event loop's current time).
// The returned id resolves through Result once the event loop passes the
// job's completion. Validation failures are errors; admission rejections
// are not — they surface as a Result with Rejected set.
func (s *Server) SubmitAt(req Request, at sim.Time) (uint64, error) {
	job, err := jobFromRequest(req, s.lim)
	if err != nil {
		return 0, err
	}
	s.nextJobID++
	job.ID = s.nextJobID
	job.Submit = at
	s.eng.At(at, func() { s.arrive(job) })
	return job.ID, nil
}

// SubmitRun validates n requests and schedules their arrivals as one engine
// run: arrival(i) returns request i and its virtual arrival time. The ids
// are the ones n SubmitAt calls would return, first through first+n-1, and
// a request SubmitAt would refuse fails the whole batch with SubmitAt's
// error, prefixed with the arrival's index; so does a time that precedes
// the previous arrival's or, for the first, the event loop's current time.
// On an error nothing is scheduled and no id is used. Nothing is copied
// either: arrival is called again as each arrival fires, so what it reads
// must stay unchanged until Run has drained the run.
func (s *Server) SubmitRun(n int, arrival func(i int) (Request, sim.Time)) (first uint64, err error) {
	prev := s.eng.Now()
	for i := 0; i < n; i++ {
		req, at := arrival(i)
		if _, err := jobFromRequest(req, s.lim); err != nil {
			return 0, fmt.Errorf("arrival %d: %w", i, err)
		}
		if at < prev {
			return 0, fmt.Errorf("arrival %d: time %v precedes %v", i, at, prev)
		}
		prev = at
	}
	first = s.nextJobID + 1
	s.nextJobID += uint64(n)
	s.eng.AtRun(n, func(i int) sim.Time {
		_, at := arrival(i)
		return at
	}, func(i int) {
		req, at := arrival(i)
		job, _ := jobFromRequest(req, s.lim) // validated above
		job.ID, job.Submit = first+uint64(i), at
		s.arrive(job)
	})
	return first, nil
}

// Run drains the event loop: every scheduled arrival is admitted or
// rejected, every admitted job batched, dispatched, and completed.
func (s *Server) Run() sim.Time { return s.eng.Run() }

// arrive is the admission gate.
func (s *Server) arrive(job Job) {
	s.stats.Offered++
	if pr := s.probes; pr != nil {
		pr.offered.Inc()
	}
	if s.waiting >= s.cfg.QueueCap {
		res := Result{
			ID:         job.ID,
			Tenant:     job.Tenant,
			Kind:       job.Kind,
			Rejected:   true,
			RetryAfter: s.retryAfter(),
			Submit:     job.Submit,
		}
		s.stats.Rejected++
		if pr := s.probes; pr != nil {
			pr.rejected.Inc()
			pr.tenant(job.Tenant).rejected.Inc()
		}
		s.finish(res)
		return
	}
	s.stats.Admitted++
	s.waiting++
	if s.waiting > s.stats.QueuePeak {
		s.stats.QueuePeak = s.waiting
	}
	if pr := s.probes; pr != nil {
		pr.admitted.Inc()
		pr.depth.Set(float64(s.waiting))
		pr.depthPeak.Set(float64(s.stats.QueuePeak))
	}
	sealed, t, armed := s.ba.add(job, s.eng.Now())
	if armed {
		s.eng.AtArg(t.at, t.b.timer, t.seq)
	}
	for _, b := range sealed {
		if b != nil {
			s.ready.pushBack(b)
		}
	}
	s.pump()
}

// retryAfter estimates when queue capacity frees up: the backlog divided
// by the measured completion rate, floored at the minimum batch window.
func (s *Server) retryAfter() float64 {
	now := s.eng.Now()
	if s.stats.Completed == 0 || now <= 0 {
		return float64(maxBatchWindow)
	}
	rate := float64(s.stats.Completed) / now
	est := float64(s.waiting) / rate
	if est < float64(minBatchWindow) {
		est = float64(minBatchWindow)
	}
	return est
}

// pickWorker returns the lowest-index idle worker, nil when none.
func (s *Server) pickWorker() *worker {
	for _, w := range s.workers {
		if !w.busy && !w.parked && !w.dead {
			return w
		}
	}
	return nil
}

// failWorker removes a worker from the pool for good — an element death, not
// a device outage. The in-flight batch (results not yet delivered, so nothing
// observable happened) aborts and requeues at the queue FRONT: its jobs have
// waited longest and must not re-enter admission behind fresh arrivals. The
// scheduled completion of the aborted dispatch is invalidated by the epoch
// bump. Survivors keep draining — a death shrinks capacity, it never fails
// an admitted job.
func (s *Server) failWorker(w *worker) {
	if w.dead {
		return
	}
	now := s.eng.Now()
	w.dead = true
	w.parked = false
	s.stats.Deaths++
	if pr := s.probes; pr != nil {
		// Registered lazily on the first death (the tenant-probe pattern), so
		// healthy runs keep their metric dumps byte-identical.
		pr.tel.Counter("serve.deaths").Inc()
		pr.tel.Trace.Instant("serve", "serve", fmt.Sprintf("death.w%d", w.idx), now)
	}
	if w.busy {
		b := w.inflight
		w.busy = false
		w.inflight = nil
		w.epoch++
		b.drained++
		s.waiting += len(b.jobs)
		if pr := s.probes; pr != nil {
			pr.depth.Set(float64(s.waiting))
		}
		s.ready.pushFront(b)
	}
	s.pump()
}

// healthyElsewhere reports whether any other worker's device currently
// answers (context alive, or hardware back so the fault-aware runner can
// re-initialize) — the condition under which draining a batch away from a
// dead device is better than grinding it through the CPU fallback.
func (s *Server) healthyElsewhere(w *worker, now sim.Time) bool {
	for _, v := range s.workers {
		if v != w && !v.dead && v.el.GPU.LossAt(now) != gpu.Outage {
			return true
		}
	}
	return false
}

// pump matches sealed batches to idle workers until one side runs dry.
// A batch headed for a worker whose GPU is mid-outage drains back into the
// queue instead (keeping its place at the front) while the pool still has
// a healthy device to run it on; the dead worker parks until its hardware
// answers again. With the whole pool down, batches execute anyway — the
// fault-aware runners collapse the split to the cores, so throughput
// degrades but no admitted job ever fails.
func (s *Server) pump() {
	now := s.eng.Now()
	for s.ready.len() > 0 {
		w := s.pickWorker()
		if w == nil {
			return
		}
		// Mid-outage a dispatch would run entirely on the cores.
		if w.el.GPU.LossAt(now) == gpu.Outage && s.healthyElsewhere(w, now) {
			s.drainPark(s.ready.front(), w, now)
			continue
		}
		s.execute(s.ready.popFront(), w)
	}
}

// drainPark records a drain of b off worker w and parks w until its
// device answers again. The batch stays at the front of the queue, jobs
// intact, for the next healthy worker.
func (s *Server) drainPark(b *batch, w *worker, now sim.Time) {
	b.drained++
	s.stats.Drains++
	if pr := s.probes; pr != nil {
		pr.drains.Inc()
		pr.tel.Trace.Instant("serve", "serve", fmt.Sprintf("drain.w%d", w.idx), now)
	}
	w.parked = true
	restore := w.el.GPU.Health().RestoredAt(now)
	if restore < now {
		// Unreachable: gpu.Outage implies the loss window covers now, and
		// loss windows are half-open, so restore > now. Kept so a broken
		// health source cannot schedule into the past.
		restore = now
	}
	s.eng.AtArg(restore, w.restore, 0)
}

// execute books one sealed batch on a worker as a single hybrid call and
// schedules its completion.
func (s *Server) execute(b *batch, w *worker) {
	now := s.eng.Now()
	s.waiting -= len(b.jobs)
	if pr := s.probes; pr != nil {
		pr.depth.Set(float64(s.waiting))
	}
	w.busy = true
	w.inflight = b
	rep := w.run.GemmVirtual(b.rows, b.key.n, b.key.k, 1, now)
	if rep.Stalled {
		// Unreachable with the pool's fault-aware runners; kept so a future
		// fault-unaware backend drains the batch instead of failing jobs.
		w.busy = false
		w.inflight = nil
		s.waiting += len(b.jobs)
		if pr := s.probes; pr != nil {
			pr.depth.Set(float64(s.waiting))
		}
		s.ready.pushFront(b)
		s.drainPark(b, w, now)
		return
	}
	s.stats.Batches++
	if pr := s.probes; pr != nil {
		pr.batches.Inc()
		pr.occupancy.Observe(float64(len(b.jobs)))
		pr.window.Set(float64(s.ba.window(b.key)))
	}
	b.start, b.end, b.gsplit = now, rep.End, rep.GSplit
	s.eng.AtArg(rep.End, w.done, w.epoch)
}

// complete retires a batch: service-rate feedback to the batcher, results
// out, the batch back to the batcher for reuse, worker back into the pool.
func (s *Server) complete(b *batch, w *worker) {
	now := s.eng.Now()
	s.ba.observeService(b.key, now-b.start)
	if b.end > s.stats.LastEnd {
		s.stats.LastEnd = b.end
	}
	for i := range b.jobs {
		job := &b.jobs[i]
		s.stats.Completed++
		res := Result{
			ID:        job.ID,
			Tenant:    job.Tenant,
			Kind:      job.Kind,
			Submit:    job.Submit,
			Start:     b.start,
			End:       b.end,
			BatchID:   b.id,
			BatchJobs: len(b.jobs),
			GSplit:    b.gsplit,
			Drained:   b.drained,
		}
		if pr := s.probes; pr != nil {
			pr.completed.Inc()
			pr.latency.Observe(res.Latency())
			tp := pr.tenant(res.Tenant)
			tp.completed.Inc()
			tp.latency.Observe(res.Latency())
		}
		s.finish(res)
	}
	w.busy = false
	w.inflight = nil
	s.ba.recycle(b)
	s.pump()
}

// finish records a resolved result. Every submitted id resolves exactly
// once, so when either store is full it grows to the submitted high-water
// mark: one step for a pre-submitted trace, append's amortised doubling when
// jobs are submitted and run one at a time.
func (s *Server) finish(res Result) {
	if len(s.results) == cap(s.results) {
		s.results = slices.Grow(s.results, int(s.nextJobID)-len(s.results))
	}
	s.results = append(s.results, res)
	if n := len(s.resultAt); int(res.ID) > n {
		s.resultAt = append(s.resultAt, make([]int, int(s.nextJobID)-n)...)
	}
	s.resultAt[res.ID-1] = len(s.results)
}
