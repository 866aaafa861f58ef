// Package fault is the deterministic fault-injection subsystem: a
// virtual-time fault scheduler that composes scenarios — GPU rate
// degradation and full device loss, ECC-style stall spans on the GPU
// timeline, per-core CPU throttle and jitter storms, DMA bandwidth
// collapse, cross-cabinet link degradation and transient message loss —
// and injects them through the small hook interfaces the hardware models
// expose (gpu.Health, cpu.SetThrottle, sim.Timeline.SetStretch,
// mpi.LinkFault).
//
// Determinism: every stochastic decision draws from named SplitMix64
// streams derived from the injector's seed — per sender rank for message
// drops, per core for jitter storms — never from wall clock, so a fault
// run regenerates bit-identically for a fixed seed even though MPI ranks
// execute on concurrent goroutines (each rank only consumes its own
// stream, in its own program order).
//
// Nil contract: like telemetry's nil bundle, a nil *Injector is the
// disabled mode — every method returns the healthy value, and the hot
// paths of the hardware models pay a single nil check when no injector is
// attached (see BenchmarkFaultHookOverhead at the repository root).
// Methods are always nil-safe; struct fields are not, so functions taking
// an injector parameter must nil-check before touching fields (enforced by
// the faultnil analyzer).
package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Kind classifies one fault event.
type Kind int

const (
	// GPUDegrade multiplies the GPU kernel rate by Factor for the window
	// (thermal throttling, downclocked engine).
	GPUDegrade Kind = iota
	// GPULoss makes the device unreachable for the window and poisons any
	// context created before it (gpu.Device.ContextDead).
	GPULoss
	// GPUStall freezes the GPU command queue for the window: operations in
	// flight stretch by the overlap (ECC scrub, ring recovery).
	GPUStall
	// DMADegrade multiplies the CPU-GPU transfer rate by Factor (PCIe link
	// retraining to a lower width/speed).
	DMADegrade
	// CPUThrottle multiplies the rate of core Core (all cores when Core < 0)
	// by Factor for the window (thermal or power capping).
	CPUThrottle
	// CPUJitterStorm draws a per-slice slowdown factor exp(-|N(0, Magnitude)|)
	// on every core for the window (OS noise bursts, daemon storms).
	CPUJitterStorm
	// LinkDegrade multiplies the network bandwidth by Factor for the window
	// (CrossCabinetOnly limits it to inter-cabinet messages).
	LinkDegrade
	// LinkDrop drops each message transmission with probability Magnitude
	// during the window (CrossCabinetOnly limits it likewise).
	LinkDrop
	// ElementFail kills the whole element at Start; linpacksim's failover
	// path restarts it from the last checkpoint.
	ElementFail
	// SDCKernel flips bits in GPU task outputs: each task drained during
	// the window is struck with probability Magnitude, corrupting Faults
	// elements (0 means 1). Strikes never perturb timing by themselves —
	// the ABFT verification layer detects and recovers them.
	SDCKernel
	// SDCDMA flips bits in DMA transfer buffers: same strike model as
	// SDCKernel, hitting the task's output on its way back to the host.
	SDCDMA
)

var kindNames = [...]string{
	"gpu.degrade", "gpu.loss", "gpu.stall", "dma.degrade",
	"cpu.throttle", "cpu.jitter_storm", "link.degrade", "link.drop",
	"element.fail", "sdc.kernel", "sdc.dma",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("fault.kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault: a kind, a virtual-time window and its
// severity. Degrade kinds use Factor (a rate multiplier in (0, 1]);
// LinkDrop and CPUJitterStorm use Magnitude (a probability, resp. a
// lognormal sigma).
type Event struct {
	Kind       Kind
	Start, End sim.Time
	Factor     float64
	Magnitude  float64
	// Core targets one compute core for CPUThrottle; negative means all.
	Core int
	// CrossCabinetOnly restricts link faults to inter-cabinet messages.
	CrossCabinetOnly bool
	// Faults is how many elements an SDC strike corrupts in one task's
	// output tile (0 selects 1). A single fault is localizable and
	// correctable by task recomputation; more escalate to checkpoint
	// restore (see abft.Classify).
	Faults int
}

// active reports whether the event covers t. Windows are half-open
// [Start, End): a loss ending at t is restored at t.
func (e Event) active(t sim.Time) bool { return e.Start <= t && t < e.End }

func (e Event) validate() error {
	// Point events (ElementFail) leave End zero; windows must not run
	// backwards.
	if e.End != 0 && e.End < e.Start {
		return fmt.Errorf("fault: %s window [%v, %v) runs backwards", e.Kind, e.Start, e.End)
	}
	switch e.Kind {
	case GPUDegrade, DMADegrade, CPUThrottle, LinkDegrade:
		if !(e.Factor > 0 && e.Factor <= 1) {
			return fmt.Errorf("fault: %s factor %v outside (0, 1]", e.Kind, e.Factor)
		}
	case LinkDrop:
		if e.Magnitude < 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: %s probability %v outside [0, 1]", e.Kind, e.Magnitude)
		}
	case CPUJitterStorm:
		if e.Magnitude < 0 {
			return fmt.Errorf("fault: %s sigma %v negative", e.Kind, e.Magnitude)
		}
	case SDCKernel, SDCDMA:
		if e.Magnitude < 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: %s strike probability %v outside [0, 1]", e.Kind, e.Magnitude)
		}
		if e.Faults < 0 {
			return fmt.Errorf("fault: %s fault count %d negative", e.Kind, e.Faults)
		}
	}
	return nil
}

// Injector schedules a set of fault events and implements every hook the
// hardware models expose. One injector serves one compute element (its
// per-core jitter streams are keyed by core index) plus one MPI world (its
// drop streams are keyed by sender rank).
type Injector struct {
	seed            uint64
	events          []Event
	stalls          []Event // GPUStall events, sorted by Start
	ranksPerCabinet int

	mu           sync.Mutex
	netRNG       map[int]*sim.RNG
	coreRNG      map[int]*sim.RNG
	sdcDelivered int64

	probes *injectorProbes // nil when telemetry is disabled
}

// injectorProbes counts dynamic fault applications (scheduled windows are
// emitted once by Instrument; these fire as the simulation hits them).
type injectorProbes struct {
	stalls     *telemetry.Counter // GPU queue operations stretched
	stallSec   *telemetry.Gauge   // total stretch inserted, virtual seconds
	jitterHits *telemetry.Counter // storm draws applied to CPU slices
	sdcStrikes *telemetry.Counter // SDC strikes delivered to task outputs
}

// New builds an injector over the given events. The seed feeds the named
// decision streams; events are validated and may overlap (overlapping
// degrade factors multiply; overlapping stalls must not be scheduled).
func New(seed uint64, events ...Event) *Injector {
	in := &Injector{
		seed:    seed,
		events:  append([]Event(nil), events...),
		netRNG:  make(map[int]*sim.RNG),
		coreRNG: make(map[int]*sim.RNG),
	}
	for _, e := range in.events {
		if err := e.validate(); err != nil {
			panic(err.Error())
		}
		if e.Kind == GPUStall {
			in.stalls = append(in.stalls, e)
		}
	}
	sort.Slice(in.stalls, func(i, j int) bool { return in.stalls[i].Start < in.stalls[j].Start })
	for i := 1; i < len(in.stalls); i++ {
		if in.stalls[i].Start < in.stalls[i-1].End {
			panic("fault: overlapping gpu.stall windows")
		}
	}
	return in
}

// Seed returns the injector's decision-stream seed; 0 for a nil injector.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Events returns a copy of the scheduled events; nil for a nil injector.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	return append([]Event(nil), in.events...)
}

// SetRanksPerCabinet teaches the injector the world's cabinet layout so
// CrossCabinetOnly link events can tell intra- from inter-cabinet messages
// (0, the default, treats every rank pair as one cabinet).
func (in *Injector) SetRanksPerCabinet(n int) {
	if in == nil {
		return
	}
	in.ranksPerCabinet = n
}

// Instrument attaches telemetry: every scheduled window becomes a span on
// the "fault" trace track (instants for point events), and dynamic
// applications (queue stretches, storm draws) feed counters. Nil injector
// or disabled bundle no-op.
func (in *Injector) Instrument(tel *telemetry.Telemetry) {
	if in == nil || !tel.Enabled() {
		return
	}
	in.probes = &injectorProbes{
		stalls:     tel.Counter("fault.gpu.stall_stretches"),
		stallSec:   tel.Gauge("fault.gpu.stall_seconds"),
		jitterHits: tel.Counter("fault.cpu.storm_draws"),
		sdcStrikes: tel.Counter("fault.sdc.strikes"),
	}
	tel.Gauge("fault.scheduled_events").Set(float64(len(in.events)))
	for _, e := range in.events {
		if e.End > e.Start {
			tel.Trace.Span("fault", "fault", e.Kind.String(), e.Start, e.End)
		} else {
			tel.Trace.Instant("fault", "fault", e.Kind.String(), e.Start)
		}
	}
}

// ---- gpu.Health -----------------------------------------------------------

// KernelFactor implements gpu.Health: the product of active GPUDegrade
// factors, or 0 while the device is lost.
func (in *Injector) KernelFactor(t sim.Time) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, e := range in.events {
		switch e.Kind {
		case GPULoss:
			if e.active(t) {
				return 0
			}
		case GPUDegrade:
			if e.active(t) {
				f *= e.Factor
			}
		}
	}
	return f
}

// TransferFactor implements gpu.Health for the DMA engine.
func (in *Injector) TransferFactor(t sim.Time) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, e := range in.events {
		switch e.Kind {
		case GPULoss:
			if e.active(t) {
				return 0
			}
		case DMADegrade:
			if e.active(t) {
				f *= e.Factor
			}
		}
	}
	return f
}

// LostIn implements gpu.Health: whether any loss window overlaps [from, to].
func (in *Injector) LostIn(from, to sim.Time) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == GPULoss && e.Start <= to && e.End > from {
			return true
		}
	}
	return false
}

// RestoredAt implements gpu.Health: the end of the loss chain covering t
// (t itself when the device answers at t).
func (in *Injector) RestoredAt(t sim.Time) sim.Time {
	if in == nil {
		return t
	}
	for changed := true; changed; {
		changed = false
		for _, e := range in.events {
			if e.Kind == GPULoss && e.active(t) {
				t = e.End
				changed = true
			}
		}
	}
	return t
}

// ---- sim.Timeline stretch (GPU queue) -------------------------------------

// StretchGPU is the sim.Timeline stretch hook for the GPU command queue: an
// operation of the given duration starting at start is extended by the
// length of every GPUStall window it runs into — the engine freezes, the
// operation resumes after the scrub.
func (in *Injector) StretchGPU(label string, start, dur sim.Time) sim.Time {
	if in == nil || len(in.stalls) == 0 {
		return dur
	}
	end := start + dur
	for _, e := range in.stalls {
		if e.Start >= end {
			break
		}
		if e.End <= start {
			continue
		}
		lo := e.Start
		if lo < start {
			lo = start
		}
		end += e.End - lo
	}
	if stretched := end - start; stretched > dur {
		if pr := in.probes; pr != nil {
			pr.stalls.Inc()
			pr.stallSec.Add(stretched - dur)
		}
		return stretched
	}
	return dur
}

// ---- cpu throttle ---------------------------------------------------------

// CoreFactor is the cpu.SetThrottle hook: the product of active throttle
// factors targeting the core, times a fresh storm draw per active jitter
// storm. Storm draws come from the per-core stream "fault/cpu/core<i>", so
// they are deterministic in the core's slice order.
func (in *Injector) CoreFactor(core int, t sim.Time) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, e := range in.events {
		switch e.Kind {
		case CPUThrottle:
			if e.active(t) && (e.Core < 0 || e.Core == core) {
				f *= e.Factor
			}
		case CPUJitterStorm:
			if e.active(t) && e.Magnitude > 0 {
				n := in.coreStream(core).Normal(0, e.Magnitude)
				f *= sim.Exp(-math.Abs(n))
				if pr := in.probes; pr != nil {
					pr.jitterHits.Inc()
				}
			}
		}
	}
	return f
}

// ---- mpi.LinkFault --------------------------------------------------------

// AdjustMessage implements mpi.LinkFault: active LinkDegrade windows divide
// the message's wire time by their factor, and active LinkDrop windows drop
// the transmission with their probability, drawn from the sender's stream
// "fault/net/rank<src>" — each rank's goroutine consumes only its own
// stream, keeping concurrent worlds bit-reproducible.
func (in *Injector) AdjustMessage(src, dst int, bytes int64, sendAt, healthy sim.Time) (sim.Time, bool) {
	if in == nil {
		return healthy, false
	}
	dur := healthy
	dropped := false
	cross := in.crossCabinet(src, dst)
	for _, e := range in.events {
		switch e.Kind {
		case LinkDegrade:
			if e.active(sendAt) && (!e.CrossCabinetOnly || cross) {
				dur /= e.Factor
			}
		case LinkDrop:
			if e.active(sendAt) && (!e.CrossCabinetOnly || cross) && e.Magnitude > 0 {
				if in.senderStream(src).Float64() < e.Magnitude {
					dropped = true
				}
			}
		}
	}
	return dur, dropped
}

func (in *Injector) crossCabinet(a, b int) bool {
	if in.ranksPerCabinet <= 0 {
		return false
	}
	return a/in.ranksPerCabinet != b/in.ranksPerCabinet
}

// ---- element failure ------------------------------------------------------

// ElementFailures returns every scheduled element failure in start order
// (ties broken by schedule position, so composed scenarios replay
// identically). Event.Core names the victim element when the scenario set
// one; consumers map it onto their own element space. Nil-safe: a nil
// injector has no failures.
func (in *Injector) ElementFailures() []Event {
	if in == nil {
		return nil
	}
	var fs []Event
	for _, e := range in.events {
		if e.Kind == ElementFail {
			fs = append(fs, e)
		}
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Start < fs[j].Start })
	return fs
}

// GPURestoreEnd returns the end of the last scheduled GPU loss window —
// the moment the device answers for good — and whether any loss is
// scheduled at all. Recovery metrics are measured from this instant.
func (in *Injector) GPURestoreEnd() (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	last, ok := sim.Time(0), false
	for _, e := range in.events {
		if e.Kind == GPULoss && (!ok || e.End > last) {
			last, ok = e.End, true
		}
	}
	return last, ok
}

// ---- silent data corruption -----------------------------------------------

// SDCHit describes one delivered corruption strike on a task's output tile.
// Coordinates index the checksum-encoded (rows+1) x (cols+1) tile: Row ==
// rows or Col == cols means the checksum row/column itself was hit, which
// makes the corruption uncorrectable (see abft.Classify).
type SDCHit struct {
	// Kind is SDCKernel or SDCDMA — where the flip happened.
	Kind Kind
	// Row, Col locate the first corrupted element in the encoded tile.
	Row, Col int
	// Bit is the flipped IEEE-754 bit (a high exponent bit: the delta is
	// always far above the verification tolerance, so a delivered strike
	// is a detectable strike).
	Bit int
	// Faults is how many elements this strike corrupted.
	Faults int
	// InChecksum reports whether any corrupted element landed in the
	// checksum row or column.
	InChecksum bool
}

// SDCTask decides whether the task drained at the given time is struck by
// silent data corruption. taskIndex must be the task's position in the
// run's global drain order: every decision draws from the per-task stream
// "fault/sdc/task<i>", so strikes depend only on the seed and the task
// index — identical whether tasks verify serially or on a worker pool.
// rows x cols is the task's output tile (excluding checksums). Nil
// injector, or no active SDC window, reports no strike.
func (in *Injector) SDCTask(taskIndex int, drain sim.Time, rows, cols int) (SDCHit, bool) {
	if in == nil {
		return SDCHit{}, false
	}
	var hit SDCHit
	struck := false
	// One fresh stream per (seed, task index): repeated queries for the
	// same task replay identically, and no per-task state accumulates.
	var r *sim.RNG
	for _, e := range in.events {
		if (e.Kind != SDCKernel && e.Kind != SDCDMA) || !e.active(drain) || e.Magnitude <= 0 {
			continue
		}
		if r == nil {
			r = sim.NewStream(in.seed, fmt.Sprintf("fault/sdc/task%d", taskIndex))
		}
		if r.Float64() >= e.Magnitude {
			continue
		}
		faults := e.Faults
		if faults <= 0 {
			faults = 1
		}
		if !struck {
			struck = true
			hit.Kind = e.Kind
			// The strike position is uniform over the encoded tile, so the
			// checksum row/column is hit with its natural probability
			// (m+n+1 out of (m+1)(n+1) elements — vanishing for the
			// paper's 8192-wide tiles).
			hit.Row = r.Intn(rows + 1)
			hit.Col = r.Intn(cols + 1)
			hit.Bit = 52 + r.Intn(11) // high mantissa / exponent bits
			hit.InChecksum = hit.Row == rows || hit.Col == cols
			hit.Faults = faults
			for extra := 1; extra < faults; extra++ {
				ri, ci := r.Intn(rows+1), r.Intn(cols+1)
				if ri == rows || ci == cols {
					hit.InChecksum = true
				}
			}
		} else {
			// Overlapping SDC windows compound: more faults in the tile.
			hit.Faults += faults
		}
	}
	if struck {
		in.mu.Lock()
		in.sdcDelivered++
		in.mu.Unlock()
		if pr := in.probes; pr != nil {
			pr.sdcStrikes.Inc()
		}
	}
	return hit, struck
}

// SDCDelivered returns how many corruption strikes the injector has
// delivered so far; 0 for a nil injector.
func (in *Injector) SDCDelivered() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sdcDelivered
}

// ---- decision streams -----------------------------------------------------

func (in *Injector) senderStream(rank int) *sim.RNG {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.netRNG[rank]
	if !ok {
		r = sim.NewStream(in.seed, fmt.Sprintf("fault/net/rank%d", rank))
		in.netRNG[rank] = r
	}
	return r
}

func (in *Injector) coreStream(core int) *sim.RNG {
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.coreRNG[core]
	if !ok {
		r = sim.NewStream(in.seed, fmt.Sprintf("fault/cpu/core%d", core))
		in.coreRNG[core] = r
	}
	return r
}
