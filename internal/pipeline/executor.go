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
	// Tally holds the ABFT outcomes (EnableVerify); the recompute bookings
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
	probes *execProbes     // nil when telemetry is disabled
	verify bool            // set, with sdc, by EnableVerify
	sdc    *fault.Injector // nil: nothing ever strikes

	// plan is the task queue of the run in progress, re-planned in place by
	// every Execute and ExecuteVirtual; dr drives the run and res manages its
	// operand tiles in device memory, one slot per Plan.operandIndex. All
	// three live here so that a run of an already-seen size allocates none
	// of them.
	plan Plan
	dr   deviceRun
	res  gpu.Residency

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

// EnableVerify turns on ABFT checksum verification of every task at its EO
// drain — the hybrid runner's fault-wiring path: the host spends
// abft.VerifySeconds per task checking the streamed-out tile against its
// Huang-Abraham checksums. sdc is the injector consulted for corruption
// strikes at each drain (nil: verification runs, nothing ever strikes);
// strikes are drawn per task index, so runs replay bit-identically. A
// localizable single-element corruption is recovered by re-enqueueing just
// that task behind the already-booked next-task kernels (the CT/NT overlap
// never stalls), while checksum-row hits and multi-element corruption are
// counted as escalations for the caller's checkpoint machinery.
func (e *Executor) EnableVerify(sdc *fault.Injector) {
	e.verify, e.sdc = true, sdc
}

// inFlight is one of the two tasks the CT/NT pair holds, from the start of
// its input phase to the drain of its output.
type inFlight struct {
	task     *Task
	earliest sim.Time    // when its transfers may begin
	cBuf     *gpu.Buffer // nil in virtual mode
	cBytes   int64
	cIn      sim.Span // the C tile's upload (beta != 0)
	kernel   sim.Span // the last accumulation kernel issued
	eoStart  sim.Time
}

// deviceRun is the controller's device driver for one plan: it books on the
// DMA engine and the command queue what each phase says. hostA/B/C are nil in
// virtual mode, which books the same spans from the shapes alone.
type deviceRun struct {
	e                   *Executor
	p                   *Plan
	alpha, beta         float64
	hostA, hostB, hostC *matrix.Dense
	rep                 Report

	// tasks holds task i in slot i&1: the successor's input and kernels are
	// booked while its predecessor's output is still to drain.
	tasks [2]inFlight
	// lastEnd is when the last retired task finished; without overlap the
	// next task's input waits for it.
	lastEnd sim.Time
	// taskIn is the interval covered by the current task's fresh transfers,
	// kept when telemetry is on so the CT/NT overlap efficiency (how much
	// input hid under the previous kernel) can be measured per task.
	taskIn    sim.Span
	taskInSet bool
}

// run drives the controller over the plan on the device.
func (e *Executor) run(p *Plan, alpha, beta float64, hostA, hostB, hostC *matrix.Dense, earliest sim.Time) Report {
	r := &e.dr
	*r = deviceRun{e: e, p: p, alpha: alpha, beta: beta, hostA: hostA, hostB: hostB, hostC: hostC,
		rep: Report{Flops: p.TotalFlops(), Tasks: len(p.Tasks), Start: earliest}, lastEnd: earliest}
	e.res.Begin(e.dev, (p.RowTiles+p.ColTiles)*p.KTiles)
	e.res.Hold(e.outputBytes(p))
	control(len(p.Tasks), e.opts.OverlapInput, r)
	e.res.Reset()
	if pr := e.probes; pr != nil {
		pr.tasks.Add(int64(r.rep.Tasks))
		pr.bytesIn.Add(r.rep.BytesIn)
		pr.bytesOut.Add(r.rep.BytesOut)
		pr.bytesSkipped.Add(r.rep.BytesSkipped)
	}
	rep := r.rep
	*r = deviceRun{} // let go of the caller's matrices
	return rep
}

// outputBytes is what the run holds in device memory besides operand tiles:
// the EO double buffers and two full C tiles (the real-data path stages whole
// output tiles, and the CT/NT overlap keeps two tasks in flight), sized from
// the plan's actual tiles, which may be far smaller than the maximum.
func (e *Executor) outputBytes(p *Plan) int64 {
	maxM, maxN := int64(p.rows[0]), int64(p.cols[0]) // only a last tile is smaller
	blockRows := min(int64(e.opts.BlockRows), maxM)
	return 2*8*blockRows*maxN + 2*8*maxM*maxN
}

// alloc reserves a device buffer; virtual mode keeps none.
func (r *deviceRun) alloc(rows, cols int) *gpu.Buffer {
	if r.hostC == nil {
		return nil
	}
	buf, err := r.e.dev.Alloc(rows, cols)
	if err != nil {
		panic(fmt.Sprintf("pipeline: device alloc %dx%d: %v", rows, cols, err))
	}
	return buf
}

// stage uploads the rows x cols tile at (rowOff, colOff) of host into a fresh
// device buffer no earlier than notBefore; virtual mode books the same
// transfer from the shape alone.
func (r *deviceRun) stage(host *matrix.Dense, rowOff, colOff, rows, cols int, notBefore sim.Time) (buf *gpu.Buffer, sp sim.Span) {
	bytes := 8 * int64(rows) * int64(cols)
	if buf = r.alloc(rows, cols); buf == nil {
		sp = r.e.dev.UploadBytes(bytes, notBefore)
	} else {
		sp = r.e.dev.Upload(host.View(rowOff, colOff, rows, cols), buf, notBefore)
	}
	r.rep.BytesIn += bytes
	if r.e.probes != nil {
		if !r.taskInSet {
			r.taskIn, r.taskInSet = sp, true
		}
		r.taskIn.Start = min(r.taskIn.Start, sp.Start)
		r.taskIn.End = max(r.taskIn.End, sp.End)
	}
	return buf, sp
}

// operand transfers an operand tile (or finds it resident), returning its
// buffer handle and the span after which it is usable. Room is made before
// the tile is staged; a tile that cannot fit beside the output side's hold
// panics with the manager's ErrWorkingSet.
func (r *deviceRun) operand(id TileID, host *matrix.Dense, notBefore sim.Time) (*gpu.Buffer, sim.Span) {
	res, slot, bytes := &r.e.res, r.p.operandIndex(id), r.p.TileBytes(id)
	if res.Resident(slot) {
		if r.e.opts.Reuse {
			r.rep.BytesSkipped += bytes
			return res.Touch(slot)
		}
		res.Drop(slot) // reuse disabled: re-transfer
	}
	if res.Evict(bytes); res.Err() != nil {
		panic(res.Err())
	}
	rows, cols := r.p.tileDims(id)
	buf, sp := r.stage(host, id.Row*r.p.Tile, id.Col*r.p.Tile, rows, cols, notBefore)
	res.Admit(slot, bytes, sp, buf)
	return buf, sp
}

// adopt books nothing: IDLE takes the device no time, and a task's slot is
// initialized where its input begins.
func (r *deviceRun) adopt(ct, nt int) {}

// input opens the task's INPUT phase at the EO start of the task CT holds
// (N-INPUT) or, under CT itself, once the last retired task has finished. It
// transfers the C tile when beta != 0 (it must be added to); launch stages
// the operand tiles, each pair just ahead of the kernel that reads it.
func (r *deviceRun) input(t int, underEO bool) {
	task, f := r.p.Tasks[t], &r.tasks[t&1]
	*f = inFlight{task: task, earliest: r.lastEnd, cBytes: r.p.TileBytes(task.CTile())}
	if underEO {
		f.earliest = r.tasks[(t-1)&1].eoStart
	}
	r.taskInSet = false
	if r.beta != 0 {
		f.cBuf, f.cIn = r.stage(r.hostC, task.RowOff, task.ColOff, task.M, task.N, f.earliest)
	} else {
		f.cBuf = r.alloc(task.M, task.N)
	}
}

// launch issues the task's accumulation kernels. Step s launches as soon as
// its own two operand tiles are staged, so a residency budget of two tiles —
// the working set ChooseTile sizes for — never evicts a tile the task has
// staged but not yet read.
func (r *deviceRun) launch(t int) {
	f, task := &r.tasks[t&1], r.p.Tasks[t]
	for si, st := range task.Steps {
		a, aSp := r.operand(task.ATile(st), r.hostA, f.earliest)
		b, bSp := r.operand(task.BTile(st), r.hostB, f.earliest)
		beta := r.beta
		if si > 0 {
			beta = 1 // later steps accumulate into the partial tile
		}
		// cIn with beta == 0 and kernel on the first step are zero spans: no
		// dependency.
		if r.hostC == nil {
			f.kernel = r.e.dev.GemmVirtual(task.M, task.N, st.K, aSp, bSp, f.cIn, f.kernel)
		} else {
			f.kernel = r.e.dev.Gemm(r.alpha, a, b, beta, f.cBuf, aSp, bSp, f.cIn, f.kernel)
		}
		if si == 0 {
			f.eoStart = f.kernel.Start
		}
	}
	if r.e.probes != nil {
		r.traceTask(t)
	}
}

// traceTask emits the CT-object trace of a launched task: its fresh-input
// interval and its EO stage, plus the fraction of the input the CT/NT overlap
// hid under the previous task's EO stage (1.0 = fully hidden, the Section V
// goal for steady-state tasks).
func (r *deviceRun) traceTask(t int) {
	f, pr := &r.tasks[t&1], r.e.probes
	if r.taskInSet {
		in := r.taskIn
		pr.tracer.Span("pipeline.input", "input", f.task.Name, in.Start, in.End)
		if dur := in.Duration(); t > 0 && dur > 0 {
			prev := &r.tasks[(t-1)&1]
			hidden := min(in.End, prev.kernel.End) - max(in.Start, prev.eoStart)
			frac := max(0, min(1, hidden/dur))
			pr.hiddenFrac.Observe(frac)
			pr.hiddenGauge.Set(frac)
		}
	}
	pr.tracer.Span("pipeline.eo", "eo", f.task.Name, f.eoStart, f.kernel.End)
}

// retire drains the task's output and, with verification on, runs its ABFT
// check before the task is considered complete.
func (r *deviceRun) retire(t int) {
	f := &r.tasks[t&1]
	r.lastEnd = r.flush(f)
	if r.e.verify {
		r.lastEnd = r.verifyTask(f, r.lastEnd)
	}
	r.rep.End = max(r.rep.End, r.lastEnd)
}

// flush books the task's OUTPUT phase — the C tile streamed back in H-row
// blocks behind the kernel with BlockedEO, whole after it otherwise — and
// returns when the task's EO stage is over.
func (r *deviceRun) flush(f *inFlight) sim.Time {
	dev, pr, name := r.e.dev, r.e.probes, f.task.Name
	var lastOut sim.Span
	if r.e.opts.BlockedEO {
		blocks := max(1, (f.task.M+r.e.opts.BlockRows-1)/r.e.opts.BlockRows)
		blockBytes := f.cBytes / int64(blocks)
		kDur := f.kernel.End - f.eoStart
		for b := 0; b < blocks; b++ {
			// Block b's rows exist once the kernel has passed them;
			// approximate readiness with proportional kernel progress.
			ready := f.eoStart + kDur*float64(b+1)/float64(blocks)
			bb := blockBytes
			if b == blocks-1 {
				ready = f.kernel.End
				bb = f.cBytes - int64(blocks-1)*blockBytes
			}
			lastOut = dev.DownloadBytes(bb, ready)
			if pr != nil {
				// Blocks alternate through the CB0/CB1 double buffers;
				// their trace tracks show the streamed-output occupancy.
				track := "pipeline.cb0"
				if b%2 == 1 {
					track = "pipeline.cb1"
				}
				pr.eoBlocks.Inc()
				pr.tracer.Span(track, "eo-block", name, lastOut.Start, lastOut.End)
			}
		}
	} else {
		lastOut = dev.DownloadBytes(f.cBytes, f.kernel.End)
		if pr != nil {
			pr.eoBlocks.Inc()
			pr.tracer.Span("pipeline.out", "output", name, lastOut.Start, lastOut.End)
		}
	}
	r.rep.BytesOut += f.cBytes
	if f.cBuf != nil {
		// The data itself moves once; the bookings above carried the
		// timing. Copy the computed tile back to the host.
		r.hostC.View(f.task.RowOff, f.task.ColOff, f.task.M, f.task.N).CopyFrom(f.cBuf.Data())
		f.cBuf.Free()
	}
	return max(lastOut.End, f.kernel.End)
}

// verifyTask runs the ABFT check of one drained task on the host: the
// verification time lands on the critical path after the tile's last output
// block, and a strike delivered by the SDC injector is detected here. A
// localizable single-element corruption re-enqueues just this task — its
// recompute kernels book on the command queue BEHIND the next task's
// already-booked kernels (with overlap the controller retires a task after
// its successor's EO stage was issued), so the CT/NT overlap never stalls; the
// accumulator tile is re-staged when beta != 0 and the repaired tile streams
// back out and re-verifies. Checksum-row hits and multi-element corruption
// cannot be localized: they count as escalations for the caller's
// checkpoint-restore machinery. On the real-data path the same bookings model
// the timing; the data is exact (strikes are a model, not actual memory
// corruption).
func (r *deviceRun) verifyTask(f *inFlight, drained sim.Time) sim.Time {
	e, rep, task, pr := r.e, &r.rep, f.task, r.e.probes
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
	switch outcome, struck := rep.Strike(e.sdc, seq, drained, task.M, task.N); {
	case !struck:
	case outcome == abft.Escalate:
		if pr != nil {
			pr.abftEscal.Inc()
			pr.tracer.Instant("pipeline.abft", "abft", "sdc.escalate "+task.Name, end)
		}
	default:
		dep := sim.Span{Start: end, End: end}
		if r.beta != 0 {
			dep = e.dev.UploadBytes(f.cBytes, end)
			rep.BytesIn += f.cBytes
		}
		kern := dep
		for _, st := range task.Steps {
			kern = e.dev.GemmVirtual(task.M, task.N, st.K, kern)
		}
		out := e.dev.DownloadBytes(f.cBytes, kern.End)
		rep.BytesOut += f.cBytes
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
	e.plan.reset(c.Rows, c.Cols, a.Cols, e.opts.Tile, e.opts.Reuse)
	return e.run(&e.plan, alpha, beta, a, b, c, earliest)
}

// ExecuteVirtual books the timing of an m x n x k DGEMM (beta specifying
// whether C must be transferred in) without real data, for the large-scale
// simulations.
func (e *Executor) ExecuteVirtual(m, n, k int, beta float64, earliest sim.Time) Report {
	e.plan.reset(m, n, k, e.opts.Tile, e.opts.Reuse)
	return e.run(&e.plan, 1, beta, nil, nil, nil, earliest)
}
