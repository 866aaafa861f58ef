// Package hybrid orchestrates one DGEMM across the CPU cores and the GPU of
// a compute element, the way the paper's optimized library does: the row
// dimension of A (and C) is cut at M*GSplit (Fig. 3), the top part runs on
// the GPU through the Section V pipeline executor, the bottom part is sliced
// across the compute cores by the CSplit fractions, and the measured virtual
// times feed back into the partitioner — the complete Section IV loop.
package hybrid

import (
	"fmt"
	"slices"

	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/matrix"
	"tianhe/internal/pipeline"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Report describes one hybrid DGEMM execution.
type Report struct {
	// M, N, K is the executed shape; Work its flop count.
	M, N, K int
	Work    float64
	// GSplit is the fraction of rows that actually ran on the GPU.
	GSplit float64
	// TG and TC are the durations of the GPU side (transfers included) and
	// of the slowest CPU core, measured from Start.
	TG, TC sim.Time
	// Start and End bound the whole operation in virtual time.
	Start, End sim.Time
	// Stalled reports that the operation could not execute: the GPU context
	// died (device loss) and this runner is not fault-aware, so its next
	// kernel submission fails — on real hardware the library call returns a
	// context error and the host program aborts. Fault-aware runners (see
	// EnableGPUFaultFallback) never stall; they fall back to the CPU.
	Stalled bool
	// CoreWorks and CoreTimes hold the level-2 measurements (nil when no
	// row ran on the cores). They are the runner's scratch: valid until its
	// next call, and the partitioner's Observe, their one reader, keeps
	// nothing of them.
	CoreWorks, CoreTimes []float64
	// BytesIn/BytesOut/BytesSkipped mirror the pipeline report.
	BytesIn, BytesOut, BytesSkipped int64
	// Tally aggregates the ABFT outcomes of the GPU tasks (EnableABFT). CPU
	// slabs are verified too but never struck — the host memory is ECC
	// protected, so soft errors are a device/DMA phenomenon here — and their
	// checksum time joins VerifySeconds, already included in TG/TC/End.
	abft.Tally
}

// Seconds returns the end-to-end duration.
func (r Report) Seconds() float64 { return r.End - r.Start }

// GFLOPS returns the achieved rate.
func (r Report) GFLOPS() float64 {
	s := r.Seconds()
	if s <= 0 {
		return 0
	}
	return r.Work / s / 1e9
}

// Runner executes hybrid DGEMMs on one element under one policy.
type Runner struct {
	el      *element.Element
	variant element.Variant
	part    adaptive.Partitioner
	exec    *pipeline.Executor
	probes  *runnerProbes // nil when telemetry is disabled

	// GPU-loss resilience: every submission passes the device's loss gate;
	// fallback arms it (EnableGPUFaultFallback), unarmed is the fault-unaware
	// seed behaviour.
	gate     gpu.LossGate
	fallback bool

	// abft enables checksum verification of every GPU task at its EO drain
	// and every CPU slab at its join (EnableABFT).
	abft bool

	// Scratch of the CPU side, reused by every call: the core splits, the
	// row shares, and the level-2 measurements a Report's CoreWorks and
	// CoreTimes alias.
	csplits              []float64
	rows                 []int
	coreWorks, coreTimes []float64
}

// runnerProbes holds the runner's metric handles, fetched once so the
// per-execution cost is a handful of atomic updates.
type runnerProbes struct {
	gemms, flops       *telemetry.Counter
	gsplit, tg, tc     *telemetry.Gauge
	gflops             *telemetry.Histogram
	balance            *telemetry.Histogram // TC/TG ratio: 1.0 = perfectly balanced split
	tracer             *telemetry.Tracer
	utilGPU, utilCores *telemetry.Gauge

	// abft publishes the verified executions' tallies; it registers on the
	// first one, so runs without verification keep their metric dumps.
	abft abft.Probes
}

// gflopsBuckets span the single-element rates of Figures 8/9.
var gflopsBuckets = []float64{25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 280.5}

// balanceBuckets grade TC/TG: near 1 means the split balanced both sides.
var balanceBuckets = []float64{0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 4}

// Instrument attaches telemetry probes to the runner: per-execution
// counters, rate/balance histograms, and element-utilization gauges. Span
// tracing of the element's resource timelines is separate (see
// element.Instrument) so callers control track naming. A nil bundle is a
// no-op.
func (r *Runner) Instrument(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	r.probes = &runnerProbes{
		gemms:     tel.Counter("hybrid.gemms"),
		flops:     tel.Counter("hybrid.flops"),
		gsplit:    tel.Gauge("hybrid.gsplit.last"),
		tg:        tel.Gauge("hybrid.tg_seconds.last"),
		tc:        tel.Gauge("hybrid.tc_seconds.last"),
		gflops:    tel.Histogram("hybrid.gflops", gflopsBuckets),
		balance:   tel.Histogram("hybrid.balance_tc_over_tg", balanceBuckets),
		tracer:    tel.Trace,
		utilGPU:   tel.Gauge("element.util.gpu_queue"),
		utilCores: tel.Gauge("element.util.cpu_cores"),
		abft:      abft.NewProbes(tel, "hybrid"),
	}
}

// New builds a runner for the given variant. part supplies the splits for
// the adaptive variants and must be nil otherwise (CPU-only runs everything
// on the cores; plain ACMLG offloads everything to the GPU).
func New(el *element.Element, v element.Variant, part adaptive.Partitioner) *Runner {
	if v.Adaptive() == (part == nil) {
		panic(fmt.Sprintf("hybrid: variant %v and partitioner presence disagree", v))
	}
	opts := pipeline.Options{}
	if v.Pipelined() {
		opts = pipeline.Pipelined()
	}
	return &Runner{
		el:      el,
		variant: v,
		part:    part,
		exec:    pipeline.NewExecutor(el.GPU, opts),
		gate:    gpu.NewLossGate(el.GPU),
	}
}

// EnableGPUFaultFallback makes the runner resilient to device loss, the
// paper's adaptivity claim taken end-to-end: while the GPU is lost the
// runner collapses GSplit to 0 and runs every slice on the compute cores,
// quarantining database_g so outage measurements never overwrite learned
// splits; when the device returns the context is re-initialized (booked on
// the kernel queue) and the database re-warms over adaptive.RewarmHalfLife
// observations. Without this call a device loss permanently poisons the
// context and the next GPU submission returns a Stalled report.
func (r *Runner) EnableGPUFaultFallback() { r.fallback = true }

// EnableABFT turns on Huang-Abraham checksum verification: every GPU task
// is checked at its EO drain (localizable corruption recovered by
// re-enqueueing just that task, see pipeline.Options.Verify) and every CPU
// slab at its join. sdc optionally supplies deterministic corruption
// strikes to the GPU side (nil: verification runs, nothing strikes); CPU
// slabs are never struck — host memory is ECC protected in this model, so
// their verification only books its honest time cost.
func (r *Runner) EnableABFT(sdc *fault.Injector) {
	r.abft = true
	r.exec.EnableVerify(sdc)
}

// gpuRows returns how many of m rows go to the GPU.
func (r *Runner) gpuRows(m int, work float64) int {
	if !r.variant.UsesGPU() {
		return 0
	}
	if r.part == nil {
		return m
	}
	return min(max(int(float64(float64(m)*r.part.GSplit(work))+0.5), 0), m)
}

// admit passes the planned GPU row count m1 through the device's loss gate
// before anything is booked and applies the runner's reaction: a
// fault-unaware runner with device rows stalls (second return true); a
// fault-aware one runs the whole call on the cores during the outage,
// quarantining database_g when it begins, and re-warms the database once the
// gate has rebuilt the context.
func (r *Runner) admit(m1 int, earliest sim.Time) (int, bool) {
	if !r.variant.UsesGPU() {
		return m1, false
	}
	switch verdict, reinit := r.gate.Admit(earliest, r.fallback); verdict {
	case gpu.Stalled:
		if m1 > 0 {
			r.faultInstant("gpu.stall", earliest)
			return 0, true
		}
	case gpu.Recovered:
		if ad, ok := adaptive.AsAdaptive(r.part); ok {
			ad.G.Rewarm(adaptive.RewarmHalfLife)
		}
		r.faultInstant("gpu.reinit", reinit.End)
	case gpu.FellBack:
		if ad, ok := adaptive.AsAdaptive(r.part); ok {
			ad.G.Quarantine()
		}
		r.faultInstant("gpu.fallback", earliest)
		return 0, false
	case gpu.StillDown:
		return 0, false
	}
	return m1, false
}

// faultInstant marks a device-health transition on the fault track.
func (r *Runner) faultInstant(name string, at sim.Time) {
	if pr := r.probes; pr != nil {
		pr.tracer.Instant("hybrid.fault", "fault", name, at)
	}
}

// Gemm executes C = alpha*A*B + beta*C with real data, returning the timing
// report. The arithmetic is exact; all durations are virtual.
func (r *Runner) Gemm(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, earliest sim.Time) Report {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("hybrid: DGEMM shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	return r.gemm(alpha, a, b, beta, c, a.Rows, b.Cols, a.Cols, earliest)
}

// GemmVirtual books the timing of an m x n x k hybrid DGEMM without data.
func (r *Runner) GemmVirtual(m, n, k int, beta float64, earliest sim.Time) Report {
	return r.gemm(1, nil, nil, beta, nil, m, n, k, earliest)
}

func (r *Runner) gemm(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, m, n, k int, earliest sim.Time) Report {
	virtual := c == nil
	work := 2 * float64(m) * float64(n) * float64(k)
	m1, stalled := r.admit(r.gpuRows(m, work), earliest)
	if stalled {
		return Report{M: m, N: n, K: k, Work: work, Start: earliest, End: earliest, Stalled: true}
	}
	m2 := m - m1

	rep := Report{M: m, N: n, K: k, Work: work, Start: earliest, End: earliest}
	if m > 0 {
		rep.GSplit = float64(m1) / float64(m)
	}

	// GPU side: rows [0, m1).
	if m1 > 0 {
		var prep pipeline.Report
		if virtual {
			prep = r.exec.ExecuteVirtual(m1, n, k, beta, earliest)
		} else {
			prep = r.exec.Execute(alpha,
				a.View(0, 0, m1, k), b, beta,
				c.View(0, 0, m1, n), earliest)
		}
		rep.TG = prep.End - earliest
		rep.BytesIn, rep.BytesOut, rep.BytesSkipped = prep.BytesIn, prep.BytesOut, prep.BytesSkipped
		rep.Tally = prep.Tally
		if prep.End > rep.End {
			rep.End = prep.End
		}
	}

	// CPU side: rows [m1, m) sliced across the cores by CSplit.
	if m2 > 0 {
		if r.part != nil {
			r.csplits = r.part.CSplits(r.csplits)
		} else {
			nc := r.el.CPU.NumCores()
			r.csplits = r.csplits[:0]
			for range nc {
				r.csplits = append(r.csplits, 1/float64(nc))
			}
		}
		rows := element.AllocRows(r.rows, m2, r.csplits)
		r.rows = rows
		r.coreWorks = zeroed(r.coreWorks, len(rows))
		r.coreTimes = zeroed(r.coreTimes, len(rows))
		rep.CoreWorks, rep.CoreTimes = r.coreWorks, r.coreTimes
		commActive := m1 > 0
		off := m1
		for i, mi := range rows {
			if mi == 0 {
				continue
			}
			core := r.el.CPU.Core(i)
			var sp sim.Span
			if virtual {
				sp = core.GemmVirtual(mi, n, k, commActive, earliest)
			} else {
				sp = core.Gemm(alpha,
					a.View(off, 0, mi, k), b, beta,
					c.View(off, 0, mi, n), commActive, earliest)
			}
			end := sp.End
			if r.abft {
				// The slab's checksum check joins the critical path of this
				// core; the cost feeds the partitioner like any other work,
				// so both sides carry their verification honestly.
				ver := abft.VerifySeconds(mi, n, k)
				end += ver
				rep.VerifySeconds += ver
			}
			rep.CoreWorks[i] = 2 * float64(mi) * float64(n) * float64(k)
			rep.CoreTimes[i] = end - earliest
			if rep.CoreTimes[i] > rep.TC {
				rep.TC = rep.CoreTimes[i]
			}
			if end > rep.End {
				rep.End = end
			}
			off += mi
		}
	}

	// Feedback: the five-timer-read update of Section IV.C.
	if r.part != nil {
		r.part.Observe(adaptive.Observation{
			Work:      work,
			GSplit:    rep.GSplit,
			TG:        rep.TG,
			TC:        rep.TC,
			CoreWorks: rep.CoreWorks,
			CoreTimes: rep.CoreTimes,
			Start:     rep.Start,
			End:       rep.End,
		})
	}
	if pr := r.probes; pr != nil {
		pr.gemms.Inc()
		pr.flops.Add(int64(work))
		pr.gsplit.Set(rep.GSplit)
		pr.tg.Set(rep.TG)
		pr.tc.Set(rep.TC)
		pr.gflops.Observe(rep.GFLOPS())
		if rep.TG > 0 && rep.TC > 0 {
			pr.balance.Observe(rep.TC / rep.TG)
		}
		pr.tracer.Sample("hybrid.gflops", rep.End, rep.GFLOPS())
		r.el.RecordUtilization(pr.utilGPU, pr.utilCores)
		if r.abft {
			pr.abft.Publish(rep.Tally)
		}
	}
	return rep
}

// zeroed returns s resized to n zeros, reusing its storage when it is long
// enough.
func zeroed(s []float64, n int) []float64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}
