package pipeline

import (
	"fmt"

	"tianhe/internal/abft"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Options selects which of Section V's techniques the executor applies.
// All false reproduces the vendor-library baseline (ACMLG): tasks run
// strictly input -> execute -> output with every operand re-transferred.
type Options struct {
	// Reuse enables the bounce-corner-turn ordering plus the resident tile
	// cache, skipping transfers of tiles already in device memory.
	Reuse bool
	// OverlapInput enables the CT/NT pipeline: the next task's input phase
	// runs during the current task's EO stage.
	OverlapInput bool
	// BlockedEO fuses the output phase into execution (Fig. 6): the C tile
	// streams back in H-row blocks through the CB0/CB1 double buffers while
	// the kernel continues, leaving only the last block on the critical path.
	BlockedEO bool
	// BlockRows is H, the EO block height. Zero selects 512.
	BlockRows int
	// Tile overrides the tile extent; zero derives it from the device.
	Tile int
	// Telemetry receives the executor's probes: task/byte counters, the
	// CB0/CB1 double-buffer occupancy spans of the blocked EO stage, and the
	// input-hidden-fraction histogram measuring how much of each task's
	// transfers the CT/NT overlap buried under the previous kernel. Nil (the
	// default) disables instrumentation at zero cost.
	Telemetry *telemetry.Telemetry
	// Verify enables ABFT checksum verification of every task at its EO
	// drain: the host spends abft.VerifySeconds per task checking the
	// streamed-out tile against its Huang-Abraham checksums. A task struck
	// by the SDC injector is detected there; a localizable single-element
	// corruption is recovered by re-enqueueing just that task behind the
	// already-booked next-task kernels (the CT/NT overlap never stalls),
	// while checksum-row hits and multi-element corruption are counted as
	// escalations for the caller's checkpoint machinery.
	Verify bool
	// SDC is the injector consulted for corruption strikes at each task
	// drain (nil: verification runs, nothing ever strikes). Strikes are
	// drawn per task index, so runs replay bit-identically.
	SDC *fault.Injector
}

// Pipelined returns the full Section V configuration.
func Pipelined() Options {
	return Options{Reuse: true, OverlapInput: true, BlockedEO: true}
}

func (o Options) withDefaults(dev *gpu.Device) Options {
	if o.BlockRows <= 0 {
		o.BlockRows = 512
	}
	if o.Tile <= 0 {
		o.Tile = ChooseTile(dev.TextureLimit(), dev.MemBytes(), o.BlockRows)
	}
	return o
}

// Report summarizes one executed plan.
type Report struct {
	// Start and End bound the whole execution in virtual time.
	Start, End sim.Time
	// Flops is the plan's operation count.
	Flops float64
	// BytesIn and BytesOut are the transferred volumes; BytesSkipped counts
	// input bytes avoided by tile reuse.
	BytesIn, BytesOut, BytesSkipped int64
	// Tasks is the number of tasks in the queue.
	Tasks int
	// Tally holds the ABFT outcomes (Options.Verify); the recompute bookings
	// and the verification time are included in End, so the overhead is
	// visible in the makespan.
	abft.Tally
}

// Seconds returns the end-to-end virtual duration.
func (r Report) Seconds() float64 { return r.End - r.Start }

// GFLOPS returns the achieved rate.
func (r Report) GFLOPS() float64 {
	s := r.Seconds()
	if s <= 0 {
		return 0
	}
	return r.Flops / s / 1e9
}

// Executor runs task queues on one device.
type Executor struct {
	dev    *gpu.Device
	opts   Options
	probes *execProbes // nil when telemetry is disabled

	// taskSeq numbers every drained task across the executor's lifetime;
	// it keys the SDC injector's per-task decision streams, so strikes
	// depend only on the drain order, which is deterministic.
	taskSeq int
}

// execProbes holds the executor's metric handles, fetched once at
// construction so the per-task path is atomic updates only.
type execProbes struct {
	tasks, bytesIn, bytesOut, bytesSkipped, eoBlocks *telemetry.Counter
	hiddenFrac                                       *telemetry.Histogram
	hiddenGauge                                      *telemetry.Gauge
	tracer                                           *telemetry.Tracer

	// ABFT probes, registered lazily on the first verified task so runs
	// without verification keep their metric dumps unchanged.
	tel                                    *telemetry.Telemetry
	abftVerified, abftCorrected, abftEscal *telemetry.Counter
	abftSeconds                            *telemetry.Gauge
}

// abftProbes fetches the verification metric handles on first use.
func (pr *execProbes) abftProbes() {
	if pr.abftVerified != nil {
		return
	}
	pr.abftVerified = pr.tel.Counter("pipeline.abft.verified")
	pr.abftCorrected = pr.tel.Counter("pipeline.abft.corrected")
	pr.abftEscal = pr.tel.Counter("pipeline.abft.escalated")
	pr.abftSeconds = pr.tel.Gauge("pipeline.abft.verify_seconds")
}

// fractionBuckets are the histogram bounds for ratio-valued metrics.
var fractionBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

func newExecProbes(tel *telemetry.Telemetry) *execProbes {
	if !tel.Enabled() {
		return nil
	}
	return &execProbes{
		tasks:        tel.Counter("pipeline.tasks"),
		bytesIn:      tel.Counter("pipeline.bytes_in"),
		bytesOut:     tel.Counter("pipeline.bytes_out"),
		bytesSkipped: tel.Counter("pipeline.bytes_skipped"),
		eoBlocks:     tel.Counter("pipeline.eo_blocks"),
		hiddenFrac:   tel.Histogram("pipeline.input_hidden_frac", fractionBuckets),
		hiddenGauge:  tel.Gauge("pipeline.input_hidden_frac.last"),
		tracer:       tel.Trace,
		tel:          tel,
	}
}

// NewExecutor builds an executor over the device.
func NewExecutor(dev *gpu.Device, opts Options) *Executor {
	return &Executor{dev: dev, opts: opts.withDefaults(dev), probes: newExecProbes(opts.Telemetry)}
}

// EnableVerify turns on ABFT verification on a built executor, optionally
// with an SDC injector supplying corruption strikes — the hybrid runner's
// fault-wiring path (see Options.Verify).
func (e *Executor) EnableVerify(sdc *fault.Injector) {
	e.opts.Verify = true
	e.opts.SDC = sdc
}

// residentTile tracks one cached operand tile in device memory.
type residentTile struct {
	buf   *gpu.Buffer // nil in virtual mode
	bytes int64
	sp    sim.Span // the transfer that made it resident
	lru   int
}

// outputJob defers a task's OUTPUT phase so that, in overlap mode, the next
// task's N-INPUT transfers are booked on the DMA engine first — the CT/NT
// program order of Table I.
type outputJob struct {
	task    *Task
	kernel  sim.Span
	eoStart sim.Time
	cBuf    *gpu.Buffer
	cBytes  int64
}

// run is the shared control loop; hostA/B/C are nil in virtual mode.
func (e *Executor) run(p *Plan, alpha, beta float64, hostA, hostB, hostC *matrix.Dense, earliest sim.Time) Report {
	rep := Report{Flops: p.TotalFlops(), Tasks: len(p.Tasks), Start: earliest}
	virtual := hostC == nil

	// Telemetry accumulators: taskIn tracks the interval covered by the
	// current task's fresh transfers, so the CT/NT overlap efficiency (how
	// much input hid under the previous kernel) can be measured per task.
	pr := e.probes
	var taskIn sim.Span
	taskInSet := false
	noteInput := func(sp sim.Span) {
		if pr == nil {
			return
		}
		if !taskInSet {
			taskIn, taskInSet = sp, true
			return
		}
		if sp.Start < taskIn.Start {
			taskIn.Start = sp.Start
		}
		if sp.End > taskIn.End {
			taskIn.End = sp.End
		}
	}

	resident := make(map[TileID]*residentTile)
	lruTick := 0
	var memInUse int64
	// The residency budget leaves room for the EO double buffers and two
	// full C tiles (the real-data path stages whole output tiles, and the
	// CT/NT overlap keeps two tasks in flight). Sizes come from the plan's
	// actual tiles, which may be far smaller than the configured maximum.
	var maxCTile, maxN, maxM int64
	for _, t := range p.Tasks {
		if b := 8 * int64(t.M) * int64(t.N); b > maxCTile {
			maxCTile = b
		}
		if int64(t.N) > maxN {
			maxN = int64(t.N)
		}
		if int64(t.M) > maxM {
			maxM = int64(t.M)
		}
	}
	blockRows := int64(e.opts.BlockRows)
	if blockRows > maxM {
		blockRows = maxM
	}
	budget := e.dev.MemBytes() - 2*8*blockRows*maxN - 2*maxCTile

	evictFor := func(need int64) {
		for memInUse+need > budget {
			var victim TileID
			best := int(^uint(0) >> 1)
			for id, rt := range resident {
				if rt.lru < best {
					best, victim = rt.lru, id
				}
			}
			if best == int(^uint(0)>>1) {
				panic(fmt.Sprintf("pipeline: tile of %d bytes cannot fit budget %d", need, budget))
			}
			rt := resident[victim]
			memInUse -= rt.bytes
			if !virtual {
				rt.buf.Free()
			}
			delete(resident, victim)
		}
	}

	// ensure transfers a tile (or finds it resident), returning its buffer
	// handle and the span after which it is usable.
	ensure := func(id TileID, host *matrix.Dense, notBefore sim.Time) (*gpu.Buffer, sim.Span) {
		if rt, ok := resident[id]; ok && e.opts.Reuse {
			lruTick++
			rt.lru = lruTick
			rep.BytesSkipped += p.TileBytes(id)
			return rt.buf, rt.sp
		}
		if rt, ok := resident[id]; ok {
			// Reuse disabled: drop the stale entry and re-transfer.
			memInUse -= rt.bytes
			if !virtual {
				rt.buf.Free()
			}
			delete(resident, id)
		}
		bytes := p.TileBytes(id)
		evictFor(bytes)
		var buf *gpu.Buffer
		var sp sim.Span
		if virtual {
			sp = e.dev.UploadBytes(bytes, notBefore)
		} else {
			rows, cols := p.tileDims(id)
			var err error
			buf, err = e.dev.Alloc(rows, cols)
			if err != nil {
				panic(fmt.Sprintf("pipeline: device alloc %v: %v", id, err))
			}
			src := host.View(id.Row*p.Tile, id.Col*p.Tile, rows, cols)
			sp = e.dev.Upload(src, buf, notBefore)
		}
		lruTick++
		resident[id] = &residentTile{buf: buf, bytes: bytes, sp: sp, lru: lruTick}
		memInUse += bytes
		rep.BytesIn += bytes
		noteInput(sp)
		return buf, sp
	}

	flush := func(job *outputJob) sim.Time {
		var lastOut sim.Span
		if e.opts.BlockedEO {
			blocks := (job.task.M + e.opts.BlockRows - 1) / e.opts.BlockRows
			if blocks < 1 {
				blocks = 1
			}
			blockBytes := job.cBytes / int64(blocks)
			kDur := job.kernel.End - job.eoStart
			for b := 0; b < blocks; b++ {
				// Block b's rows exist once the kernel has passed them;
				// approximate readiness with proportional kernel progress.
				ready := job.eoStart + kDur*float64(b+1)/float64(blocks)
				bb := blockBytes
				if b == blocks-1 {
					ready = job.kernel.End
					bb = job.cBytes - int64(blocks-1)*blockBytes
				}
				lastOut = e.dev.DownloadBytes(bb, ready)
				if pr != nil {
					// Blocks alternate through the CB0/CB1 double buffers;
					// their trace tracks show the streamed-output occupancy.
					track := "pipeline.cb0"
					if b%2 == 1 {
						track = "pipeline.cb1"
					}
					pr.eoBlocks.Inc()
					pr.tracer.Span(track, "eo-block", job.task.Name, lastOut.Start, lastOut.End)
				}
			}
		} else {
			lastOut = e.dev.DownloadBytes(job.cBytes, job.kernel.End)
			if pr != nil {
				pr.eoBlocks.Inc()
				pr.tracer.Span("pipeline.out", "output", job.task.Name, lastOut.Start, lastOut.End)
			}
		}
		rep.BytesOut += job.cBytes
		if !virtual {
			// The data itself moves once; the bookings above carried the
			// timing. Copy the computed tile back to the host.
			dst := hostC.View(job.task.RowOff, job.task.ColOff, job.task.M, job.task.N)
			dst.CopyFrom(job.cBuf.Data())
			job.cBuf.Free()
		}
		end := lastOut.End
		if job.kernel.End > end {
			end = job.kernel.End
		}
		if end > rep.End {
			rep.End = end
		}
		return end
	}

	// drain flushes a deferred output job and, with verification on, runs
	// its ABFT check before the task is considered complete.
	drain := func(job *outputJob) sim.Time {
		end := flush(job)
		if e.opts.Verify {
			end = e.verifyTask(&rep, job, beta, end)
		}
		return end
	}

	// prevEOStart is when the previous task entered its EO stage: with
	// OverlapInput the next task's transfers (the NT object's N-INPUT state)
	// may begin then; without it they wait for the previous task to finish.
	prevEOStart := earliest
	prevTaskEnd := earliest
	// pending is the one OUTPUT job not yet drained — the CT half of the
	// CT/NT pair of Table I.
	var pending *outputJob
	var prevEO sim.Span // the previous task's full EO stage [eoStart, kernel.End]
	prevEOSet := false

	for _, task := range p.Tasks {
		taskInSet = false
		var inputEarliest sim.Time
		if e.opts.OverlapInput {
			inputEarliest = prevEOStart
		} else {
			// Strict input -> execute -> output: finish the previous task's
			// output before touching this task's inputs.
			if pending != nil {
				prevTaskEnd = drain(pending)
				pending = nil
			}
			inputEarliest = prevTaskEnd
		}

		// INPUT phase: C tile first when beta != 0 (it must be added to),
		// then the operand tiles of every accumulation step.
		var cBuf *gpu.Buffer
		var cIn sim.Span
		cID := task.CTile()
		cBytes := p.TileBytes(cID)
		if beta != 0 {
			if virtual {
				cIn = e.dev.UploadBytes(cBytes, inputEarliest)
			} else {
				rows, cols := task.M, task.N
				var err error
				cBuf, err = e.dev.Alloc(rows, cols)
				if err != nil {
					panic(fmt.Sprintf("pipeline: C tile alloc: %v", err))
				}
				src := hostC.View(task.RowOff, task.ColOff, rows, cols)
				cIn = e.dev.Upload(src, cBuf, inputEarliest)
			}
			rep.BytesIn += cBytes
			noteInput(cIn)
		} else if !virtual {
			var err error
			cBuf, err = e.dev.Alloc(task.M, task.N)
			if err != nil {
				panic(fmt.Sprintf("pipeline: C tile alloc: %v", err))
			}
		}

		type stepIn struct {
			a, b     *gpu.Buffer
			aSp, bSp sim.Span
		}
		ins := make([]stepIn, len(task.Steps))
		for si, st := range task.Steps {
			aBuf, aSp := ensure(task.ATile(st), hostA, inputEarliest)
			bBuf, bSp := ensure(task.BTile(st), hostB, inputEarliest)
			ins[si] = stepIn{a: aBuf, b: bBuf, aSp: aSp, bSp: bSp}
		}

		// EO stage: accumulation kernels, then the streamed output.
		var kernel sim.Span
		var eoStart sim.Time
		for si, st := range task.Steps {
			deps := []sim.Span{ins[si].aSp, ins[si].bSp}
			if beta != 0 {
				deps = append(deps, cIn)
			}
			if si > 0 {
				deps = append(deps, kernel)
			}
			b := beta
			if si > 0 {
				b = 1 // later steps accumulate into the partial tile
			}
			if virtual {
				kernel = e.dev.GemmVirtual(task.M, task.N, st.K, deps...)
			} else {
				kernel = e.dev.Gemm(alpha, ins[si].a, ins[si].b, b, cBuf, deps...)
			}
			if si == 0 {
				eoStart = kernel.Start
			}
		}

		if pr != nil {
			// CT-object trace: the task's fresh-input interval and its EO
			// stage, plus the fraction of the input the CT/NT overlap hid
			// under the previous task's EO stage (1.0 = fully hidden, the
			// Section V goal for steady-state tasks).
			if taskInSet {
				pr.tracer.Span("pipeline.input", "input", task.Name, taskIn.Start, taskIn.End)
				if prevEOSet {
					lo, hi := taskIn.Start, taskIn.End
					if prevEO.Start > lo {
						lo = prevEO.Start
					}
					if prevEO.End < hi {
						hi = prevEO.End
					}
					if dur := taskIn.Duration(); dur > 0 {
						frac := (hi - lo) / dur
						if frac < 0 {
							frac = 0
						}
						if frac > 1 {
							frac = 1
						}
						pr.hiddenFrac.Observe(frac)
						pr.hiddenGauge.Set(frac)
					}
				}
			}
			pr.tracer.Span("pipeline.eo", "eo", task.Name, eoStart, kernel.End)
		}
		prevEO, prevEOSet = sim.Span{Start: eoStart, End: kernel.End}, true

		// OUTPUT: deferred so the next task's inputs can be booked first in
		// overlap mode (the single transfer thread serves N-INPUT before the
		// bulk of the EO downloads).
		if pending != nil {
			drain(pending)
		}
		pending = &outputJob{task: task, kernel: kernel, eoStart: eoStart, cBuf: cBuf, cBytes: cBytes}
		prevEOStart = eoStart
	}
	if pending != nil {
		drain(pending)
	}

	// Release any tiles still resident.
	if !virtual {
		for _, rt := range resident {
			rt.buf.Free()
		}
	}
	if pr != nil {
		pr.tasks.Add(int64(rep.Tasks))
		pr.bytesIn.Add(rep.BytesIn)
		pr.bytesOut.Add(rep.BytesOut)
		pr.bytesSkipped.Add(rep.BytesSkipped)
	}
	return rep
}

// verifyTask runs the ABFT check of one drained task on the host: the
// verification time lands on the critical path after the tile's last output
// block, and a strike delivered by the SDC injector is detected here. A
// localizable single-element corruption re-enqueues just this task — its
// recompute kernels book on the command queue BEHIND the next task's
// already-booked kernels (in overlap mode this drain runs after the
// successor's EO stage was issued), so the CT/NT overlap never stalls; the
// accumulator tile is re-staged when beta != 0 and the repaired tile streams
// back out and re-verifies. Checksum-row hits and multi-element corruption
// cannot be localized: they count as escalations for the caller's
// checkpoint-restore machinery. On the real-data path the same bookings model
// the timing; the data is exact (strikes are a model, not actual memory
// corruption).
func (e *Executor) verifyTask(rep *Report, job *outputJob, beta float64, drained sim.Time) sim.Time {
	task, pr := job.task, e.probes
	kTot := 0
	for _, st := range task.Steps {
		kTot += st.K
	}
	ver := abft.VerifySeconds(task.M, task.N, kTot)
	end := drained + ver
	rep.VerifySeconds += ver
	verBooked := ver
	seq := e.taskSeq
	e.taskSeq++
	if pr != nil {
		pr.abftProbes()
		pr.abftVerified.Inc()
		pr.tracer.Span("pipeline.abft", "abft", "verify "+task.Name, drained, end)
	}
	switch outcome, struck := rep.Strike(e.opts.SDC, seq, drained, task.M, task.N); {
	case !struck:
	case outcome == abft.Escalate:
		if pr != nil {
			pr.abftEscal.Inc()
			pr.tracer.Instant("pipeline.abft", "abft", "sdc.escalate "+task.Name, end)
		}
	default:
		dep := sim.Span{Start: end, End: end}
		if beta != 0 {
			dep = e.dev.UploadBytes(job.cBytes, end)
			rep.BytesIn += job.cBytes
		}
		kern := dep
		for _, st := range task.Steps {
			kern = e.dev.GemmVirtual(task.M, task.N, st.K, kern)
		}
		out := e.dev.DownloadBytes(job.cBytes, kern.End)
		rep.BytesOut += job.cBytes
		end = out.End + ver // the repaired tile re-verifies
		rep.VerifySeconds += ver
		verBooked += ver
		if pr != nil {
			pr.abftCorrected.Inc()
			pr.tracer.Instant("pipeline.abft", "abft", "sdc.recompute "+task.Name, end)
		}
	}
	if pr != nil {
		pr.abftSeconds.Add(verBooked)
	}
	if end > rep.End {
		rep.End = end
	}
	return end
}

// Execute runs C = alpha*A*B + beta*C on the device with real data,
// returning the timing report. The result lands in c and is exact (the same
// arithmetic as the host BLAS).
func (e *Executor) Execute(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, earliest sim.Time) Report {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("pipeline: DGEMM shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if e.dev.Virtual() {
		panic("pipeline: Execute needs a non-virtual device; use ExecuteVirtual")
	}
	p := NewPlan(c.Rows, c.Cols, a.Cols, e.opts.Tile, e.opts.Reuse)
	return e.run(p, alpha, beta, a, b, c, earliest)
}

// ExecuteVirtual books the timing of an m x n x k DGEMM (beta specifying
// whether C must be transferred in) without real data, for the large-scale
// simulations.
func (e *Executor) ExecuteVirtual(m, n, k int, beta float64, earliest sim.Time) Report {
	p := NewPlan(m, n, k, e.opts.Tile, e.opts.Reuse)
	return e.run(p, 1, beta, nil, nil, nil, earliest)
}
