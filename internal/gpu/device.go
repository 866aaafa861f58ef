// Package gpu simulates the ATI RV770 accelerator of a TianHe-1 compute
// element at the level the paper's techniques care about: a 1 GiB local
// memory with 8192x8192 2D-resource limits, a DMA engine whose transfers pay
// the two-hop host/PCI-E cost, and a command queue executing DGEMM kernels at
// a shape-dependent rate. Kernels compute real float64 results through the
// repository's BLAS so every optimized path stays verifiable; durations are booked
// on sim.Timeline resources in virtual time.
//
// A Device may also run in virtual mode (no backing data), used by the
// cluster-scale experiments where only timing matters.
package gpu

import (
	"fmt"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
)

// Config selects the modelled hardware configuration of a device.
type Config struct {
	// Model is the kernel-rate model; zero value selects DefaultGPU.
	Model perfmodel.GPU
	// Transfer is the CPU-GPU path model; zero value selects the pinned
	// chunked staging path.
	Transfer perfmodel.Transfer
	// MemBytes is the local memory capacity; 0 selects the RV770's 1 GiB.
	MemBytes int64
	// TextureLimit caps each dimension of an allocation; 0 selects 8192.
	TextureLimit int
	// Virtual disables data storage and arithmetic: buffers are shape-only
	// and kernels only book time.
	Virtual bool
}

func (c Config) withDefaults() Config {
	if c.Model == (perfmodel.GPU{}) {
		c.Model = perfmodel.DefaultGPU()
	}
	if c.Transfer == (perfmodel.Transfer{}) {
		c.Transfer = perfmodel.DefaultTransfer()
	}
	if c.MemBytes == 0 {
		c.MemBytes = perfmodel.GPULocalMemBytes
	}
	if c.TextureLimit == 0 {
		c.TextureLimit = perfmodel.TextureLimit
	}
	return c
}

// Health is the fault-injection view of a device: time-varying rate factors
// for the kernel and transfer engines and a loss record. The contract
// mirrors telemetry's nil pattern — a device without a health source (the
// default) pays one nil check per operation and behaves exactly like the
// seed code. Implementations must be deterministic in virtual time.
type Health interface {
	// KernelFactor returns the kernel-rate multiplier in effect at t, in
	// (0, 1]. Durations are divided by it.
	KernelFactor(t sim.Time) float64
	// TransferFactor is KernelFactor for the DMA engine.
	TransferFactor(t sim.Time) float64
	// LostIn reports whether the device was lost at any point in [from, to].
	LostIn(from, to sim.Time) bool
	// RestoredAt returns the end of the loss window active at t; t itself if
	// the device is not lost at t.
	RestoredAt(t sim.Time) sim.Time
}

// ReinitSeconds is the virtual cost of re-initializing a lost device
// context: driver re-open, context setup and pinned-pool re-registration.
const ReinitSeconds = 0.75

// Device is one simulated GPU chip.
type Device struct {
	cfg      Config
	used     int64
	pool     *PinnedPool
	health   Health        // nil: always healthy (the fast path)
	lastInit sim.Time      // virtual time the current context was created
	Queue    *sim.Timeline // kernel execution engine
	DMA      *sim.Timeline // transfer engine (one per device: a single
	// dedicated host thread drives it, as in the paper)
}

// New returns a device with the given configuration.
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	return &Device{
		cfg:   cfg,
		pool:  NewPinnedPool(0),
		Queue: sim.NewTimeline("gpu.queue"),
		DMA:   sim.NewTimeline("gpu.dma"),
	}
}

// Pool exposes the pinned staging pool (tests drain it to exercise the
// pageable fallback).
func (d *Device) Pool() *PinnedPool { return d.pool }

// Model returns the device's kernel-rate model.
func (d *Device) Model() perfmodel.GPU { return d.cfg.Model }

// SetHealth installs a health source for fault injection; nil (the default)
// keeps the device permanently healthy with no per-operation overhead.
func (d *Device) SetHealth(h Health) { d.health = h }

// Health returns the installed health source, nil when none.
func (d *Device) Health() Health { return d.health }

// AvailableAt reports whether the device hardware answers at t (it may
// still hold a dead context — see ContextDead).
func (d *Device) AvailableAt(t sim.Time) bool {
	return d.health == nil || !d.health.LostIn(t, t)
}

// ContextDead reports whether the device context created at the last (re-)
// initialization has been invalidated by a loss event before t. As on real
// hardware, losing the device poisons the context permanently: every later
// submission fails until the runtime re-initializes, whether or not the
// hardware itself has come back. Fault-unaware runtimes never do.
func (d *Device) ContextDead(t sim.Time) bool {
	return d.health != nil && d.health.LostIn(d.lastInit, t)
}

// Reinit books a context re-initialization on the command queue no earlier
// than earliest and makes the new context's creation time the span end, so
// a subsequent loss-free interval keeps it valid. Panics if the hardware is
// still lost at earliest: callers must check AvailableAt first.
func (d *Device) Reinit(earliest sim.Time) sim.Span {
	if !d.AvailableAt(earliest) {
		panic("gpu: reinit of a device that is still lost")
	}
	sp := d.Queue.Book("reinit", earliest, ReinitSeconds)
	d.lastInit = sp.End
	return sp
}

// Loss classifies a device against its loss record at one instant.
type Loss uint8

const (
	// Live: the current context is valid and submissions succeed (also every
	// device without a health source).
	Live Loss = iota
	// Outage: the context is dead and the hardware does not answer.
	Outage
	// Restorable: the context is dead but the hardware answers again, so a
	// re-initialization would succeed.
	Restorable
)

// LossAt classifies the device at t. It books nothing and changes nothing.
func (d *Device) LossAt(t sim.Time) Loss {
	switch {
	case !d.ContextDead(t):
		return Live
	case d.AvailableAt(t):
		return Restorable
	}
	return Outage
}

// Admission is what a runtime submitting fresh work at some instant must do
// about the device, as decided by LossGate.Admit.
type Admission uint8

const (
	// Admitted: the context is live; submit normally.
	Admitted Admission = iota
	// Stalled: the context is dead and the caller is not fault-aware, so its
	// submission fails for good. The gate's state is untouched.
	Stalled
	// FellBack: the outage was just noticed — run without the device, and
	// take the once-per-outage actions (quarantine, drop device copies).
	FellBack
	// StillDown: the same outage as an earlier FellBack; run without the
	// device.
	StillDown
	// Recovered: the hardware answered again and the gate rebuilt the
	// context; device work may be submitted and queues behind the re-init.
	Recovered
)

// LossGate is the one admission state machine over a device's loss record:
// dead context → stall, or outage fallback, or re-initialization on restore.
// Each runtime that submits to the device owns one gate; the once-per-outage
// FellBack transition is per gate.
type LossGate struct {
	dev  *Device
	down bool // between FellBack and Recovered
}

// NewLossGate returns the gate a runtime passes before submitting to dev.
func NewLossGate(dev *Device) LossGate { return LossGate{dev: dev} }

// Admit decides the fate of work submitted at the given instant. armed says
// whether the caller can run without the device; an unarmed caller gets
// Stalled on any dead context. On Recovered the gate has booked the context
// re-initialization on the command queue no earlier than at (the returned
// span) and held the DMA engine to its end, so no kernel or transfer lands
// before the new context exists. This is the only place that re-initializes.
func (g *LossGate) Admit(at sim.Time, armed bool) (Admission, sim.Span) {
	switch loss := g.dev.LossAt(at); {
	case loss == Live:
		return Admitted, sim.Span{}
	case !armed:
		return Stalled, sim.Span{}
	case loss == Restorable:
		sp := g.dev.Reinit(at)
		g.dev.DMA.AdvanceTo(sp.End)
		g.down = false
		return Recovered, sp
	case g.down:
		return StillDown, sim.Span{}
	}
	g.down = true
	return FellBack, sim.Span{}
}

// healthFactor resolves the rate multiplier for work booked at or after
// earliest. Device loss is modeled at operation granularity: chunks of an
// operation admitted before the loss may land inside the window, and they
// complete at the restore-time rate — as if the loss struck at the
// operation's completion. Only new admissions observe the outage (LossGate
// stalls, falls back, or re-inits before fresh work meets a dead context).
func (d *Device) healthFactor(earliest sim.Time, factor func(sim.Time) float64) float64 {
	f := factor(earliest)
	if f <= 0 {
		f = factor(d.health.RestoredAt(earliest))
	}
	if f <= 0 {
		panic("gpu: health factor not positive after device restore")
	}
	return f
}

// TransferModel returns the device's CPU-GPU path model.
func (d *Device) TransferModel() perfmodel.Transfer { return d.cfg.Transfer }

// TextureLimit returns the maximum allocation extent per dimension.
func (d *Device) TextureLimit() int { return d.cfg.TextureLimit }

// MemBytes returns the local memory capacity.
func (d *Device) MemBytes() int64 { return d.cfg.MemBytes }

// MemUsed returns the currently allocated local memory.
func (d *Device) MemUsed() int64 { return d.used }

// Virtual reports whether the device skips real arithmetic.
func (d *Device) Virtual() bool { return d.cfg.Virtual }

// Reset frees all memory and clears both engines back to time zero. The
// context is considered freshly created at time zero; the health source, if
// any, stays installed.
func (d *Device) Reset() {
	d.used = 0
	d.lastInit = 0
	d.Queue.Reset()
	d.DMA.Reset()
}

// ErrOutOfMemory reports an allocation exceeding device memory.
type ErrOutOfMemory struct {
	Requested, Used, Capacity int64
}

func (e ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpu: out of local memory: need %d bytes, %d of %d in use",
		e.Requested, e.Used, e.Capacity)
}

// ErrTextureLimit reports an allocation whose extent exceeds the 2D resource
// limit; callers must split such matrices into tasks (Section V.C).
type ErrTextureLimit struct {
	Rows, Cols, Limit int
}

func (e ErrTextureLimit) Error() string {
	return fmt.Sprintf("gpu: %dx%d allocation exceeds the %d texture limit",
		e.Rows, e.Cols, e.Limit)
}

// Buffer is a 2D allocation in device local memory.
type Buffer struct {
	dev        *Device
	Rows, Cols int
	data       *matrix.Dense // nil in virtual mode
	freed      bool
}

// Bytes returns the allocation size in bytes (8 bytes per element).
func (b *Buffer) Bytes() int64 { return 8 * int64(b.Rows) * int64(b.Cols) }

// Data exposes the backing matrix for verification; nil in virtual mode.
func (b *Buffer) Data() *matrix.Dense { return b.data }

// Alloc reserves a rows x cols buffer in local memory.
func (d *Device) Alloc(rows, cols int) (*Buffer, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("gpu: invalid allocation %dx%d", rows, cols)
	}
	if rows > d.cfg.TextureLimit || cols > d.cfg.TextureLimit {
		return nil, ErrTextureLimit{Rows: rows, Cols: cols, Limit: d.cfg.TextureLimit}
	}
	b := &Buffer{dev: d, Rows: rows, Cols: cols}
	if d.used+b.Bytes() > d.cfg.MemBytes {
		return nil, ErrOutOfMemory{Requested: b.Bytes(), Used: d.used, Capacity: d.cfg.MemBytes}
	}
	d.used += b.Bytes()
	if !d.cfg.Virtual {
		b.data = matrix.NewDense(rows, cols)
	}
	return b, nil
}

// Free releases the buffer's local memory; a nil buffer (a shape-only copy's)
// has none. Freeing twice panics: it would corrupt the accounting exactly like
// a real double-free.
func (b *Buffer) Free() {
	if b == nil {
		return
	}
	if b.freed {
		panic("gpu: double free of device buffer")
	}
	b.freed = true
	b.dev.used -= b.Bytes()
}

// Upload copies src into dst, booking the transfer on the DMA engine no
// earlier than earliest. The returned span is the transfer's interval.
func (d *Device) Upload(src *matrix.Dense, dst *Buffer, earliest sim.Time) sim.Span {
	if dst.freed {
		panic("gpu: upload into freed buffer")
	}
	if !d.cfg.Virtual {
		if src.Rows != dst.Rows || src.Cols != dst.Cols {
			panic(fmt.Sprintf("gpu: upload shape mismatch %dx%d -> %dx%d",
				src.Rows, src.Cols, dst.Rows, dst.Cols))
		}
		dst.data.CopyFrom(src)
	}
	return d.bookTransfer("up", dst.Bytes(), earliest)
}

// UploadBytes books a shape-only upload of the given size (virtual paths).
func (d *Device) UploadBytes(bytes int64, earliest sim.Time) sim.Span {
	return d.bookTransfer("up", bytes, earliest)
}

// bookTransfer books one transfer of the given size on the DMA engine no
// earlier than earliest, on whichever path transferModel picks.
func (d *Device) bookTransfer(label string, bytes int64, earliest sim.Time) sim.Span {
	tr, acquired := d.transferModel()
	sp := d.DMA.Book(label, earliest, d.transferSeconds(tr.Seconds(bytes), earliest))
	if acquired {
		d.pool.Release(stagingChunks)
	}
	return sp
}

// transferSeconds applies the health transfer factor to a model duration.
func (d *Device) transferSeconds(seconds float64, earliest sim.Time) float64 {
	if d.health != nil {
		seconds /= d.healthFactor(earliest, d.health.TransferFactor)
	}
	return seconds
}

// DownloadBytes books a shape-only download of the given size.
func (d *Device) DownloadBytes(bytes int64, earliest sim.Time) sim.Span {
	return d.bookTransfer("down", bytes, earliest)
}

// Gemm executes C = alpha*A*B + beta*C on device buffers, booking the kernel
// on the command queue after its dependencies. Real arithmetic runs unless
// the device is virtual.
func (d *Device) Gemm(alpha float64, a, b *Buffer, beta float64, c *Buffer, deps ...sim.Span) sim.Span {
	if a.freed || b.freed || c.freed {
		panic("gpu: kernel on freed buffer")
	}
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("gpu: kernel shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if !d.cfg.Virtual {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a.data, b.data, beta, c.data)
	}
	return d.Kernel("gemm", d.cfg.Model.KernelSeconds(a.Rows, b.Cols, a.Cols), deps...)
}

// GemmVirtual books a kernel of the given shape without operand buffers.
func (d *Device) GemmVirtual(m, n, k int, deps ...sim.Span) sim.Span {
	return d.Kernel("gemm", d.cfg.Model.KernelSeconds(m, n, k), deps...)
}

// Kernel books an arbitrary kernel of the given model duration on the
// command queue after its dependencies, applying the health kernel factor at
// the submission time — the seam the task-graph runtime launches non-GEMM
// codelets through.
func (d *Device) Kernel(label string, seconds float64, deps ...sim.Span) sim.Span {
	if d.health != nil {
		var earliest sim.Time
		for _, dep := range deps {
			if dep.End > earliest {
				earliest = dep.End
			}
		}
		seconds /= d.healthFactor(earliest, d.health.KernelFactor)
	}
	return d.Queue.BookAfter(label, seconds, deps...)
}
