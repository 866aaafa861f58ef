// Package element assembles one TianHe-1 compute element — a quad-core Xeon
// plus one RV770 GPU chip sharing a virtual clock — and catalogs the five
// DGEMM/Linpack configurations the paper evaluates (Section VI.B): the
// host-only library, the vendor GPU library, and the vendor library improved
// by the adaptive split, the software pipeline, or both.
package element

import (
	"slices"

	"tianhe/internal/cpu"
	"tianhe/internal/gpu"
	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

// Variant names one of the five evaluated configurations.
type Variant int

const (
	// CPUOnly is the host math library on all four cores (the "CPU" series).
	CPUOnly Variant = iota
	// ACMLG is the vendor GPU library: the whole DGEMM offloaded to the GPU
	// with strict input -> execute -> output task processing.
	ACMLG
	// ACMLGAdaptive adds the two-level adaptive CPU/GPU split.
	ACMLGAdaptive
	// ACMLGPipe adds the software pipeline (reuse + overlap + blocked EO).
	ACMLGPipe
	// ACMLGBoth applies both techniques.
	ACMLGBoth
)

// Variants lists the five configurations in the paper's presentation order.
var Variants = []Variant{CPUOnly, ACMLG, ACMLGAdaptive, ACMLGPipe, ACMLGBoth}

func (v Variant) String() string {
	switch v {
	case CPUOnly:
		return "CPU"
	case ACMLG:
		return "ACMLG"
	case ACMLGAdaptive:
		return "ACMLG+adaptive"
	case ACMLGPipe:
		return "ACMLG+pipe"
	case ACMLGBoth:
		return "ACMLG+both"
	}
	return "unknown"
}

// UsesGPU reports whether the variant offloads to the accelerator.
func (v Variant) UsesGPU() bool { return v != CPUOnly }

// Adaptive reports whether the variant uses the two-level adaptive split.
func (v Variant) Adaptive() bool { return v == ACMLGAdaptive || v == ACMLGBoth }

// Pipelined reports whether the variant uses the Section V pipeline.
func (v Variant) Pipelined() bool { return v == ACMLGPipe || v == ACMLGBoth }

// Config describes one compute element.
type Config struct {
	// Seed drives all deterministic randomness of the element.
	Seed uint64
	// Virtual disables real arithmetic throughout (timing only).
	Virtual bool
	// GPUModel overrides the kernel-rate model (zero value: 750 MHz RV770).
	GPUModel perfmodel.GPU
	// Transfer overrides the CPU-GPU path model.
	Transfer perfmodel.Transfer
	// GPUMem and GPUTexture override the device's memory capacity and 2D
	// resource limit; zero keeps the RV770 values. Tests shrink these so
	// small problems still exercise multi-task pipelines.
	GPUMem     int64
	GPUTexture int
	// CPUCores overrides the compute-core count (0: three cores + comm).
	CPUCores int
	// Xeon selects the host processor model (default E5540).
	Xeon perfmodel.Xeon
	// JitterSigma and BiasSpread tune the CPU noise models (see cpu.Config).
	JitterSigma float64
	BiasSpread  float64
}

// Element is one CPU+GPU compute unit.
type Element struct {
	cfg Config
	CPU *cpu.CPU
	GPU *gpu.Device
}

// New assembles a compute element.
func New(cfg Config) *Element {
	return &Element{
		cfg: cfg,
		CPU: cpu.New(cpu.Config{
			Seed:        cfg.Seed,
			Xeon:        cfg.Xeon,
			Cores:       cfg.CPUCores,
			BiasSpread:  cfg.BiasSpread,
			JitterSigma: cfg.JitterSigma,
			Virtual:     cfg.Virtual,
		}),
		GPU: gpu.New(gpu.Config{
			Model:        cfg.GPUModel,
			Transfer:     cfg.Transfer,
			MemBytes:     cfg.GPUMem,
			TextureLimit: cfg.GPUTexture,
			Virtual:      cfg.Virtual,
		}),
	}
}

// Now returns the element-wide virtual time: the latest point any of its
// resources is booked to.
func (e *Element) Now() sim.Time {
	m := sim.Latest(e.GPU.Queue, e.GPU.DMA)
	for _, c := range e.CPU.Cores() {
		if a := c.TL.Available(); a > m {
			m = a
		}
	}
	return m
}

// Reset returns every resource to virtual time zero.
func (e *Element) Reset() {
	e.CPU.Reset()
	e.GPU.Reset()
}

// Timelines returns every resource timeline of the element: the GPU kernel
// queue and DMA engine followed by the compute cores.
func (e *Element) Timelines() []*sim.Timeline {
	tls := []*sim.Timeline{e.GPU.Queue, e.GPU.DMA}
	for _, c := range e.CPU.Cores() {
		tls = append(tls, c.TL)
	}
	return tls
}

// Instrument streams every booking on the element's resources into the
// bundle's tracer, the only record of them the element leaves. label
// prefixes the track names so several elements sharing one tracer stay
// distinguishable (empty keeps the bare resource names). A nil bundle is a
// no-op.
func (e *Element) Instrument(tel *telemetry.Telemetry, label string) {
	if label != "" {
		label += "/"
	}
	telemetry.AttachTimelines(tel, "element", label, e.Timelines()...)
}

// RecordUtilization sets the given gauges to the element's current resource
// utilization over the makespan: the GPU kernel queue's busy fraction and
// the mean busy fraction of the compute cores. Nil gauges no-op.
func (e *Element) RecordUtilization(gpuQueue, cpuCores *telemetry.Gauge) {
	end := e.Now()
	if end <= 0 {
		return
	}
	gpuQueue.Set(e.GPU.Queue.Busy() / end)
	var busy sim.Time
	for _, c := range e.CPU.Cores() {
		busy += c.TL.Busy()
	}
	cpuCores.Set(busy / (end * float64(e.CPU.NumCores())))
}

// PeakGFLOPS returns the element's aggregate peak (the paper's 280.5 with
// an E5540 socket at the standard GPU clock).
func (e *Element) PeakGFLOPS() float64 {
	g := e.GPU.Model().PeakGFLOPS
	return g + float64(perfmodel.CoresPerCPU*e.cfg.Xeon.CoreGFLOPS())
}

// InitialGSplit returns the peak-ratio split the databases start from:
// P'_G / (P'_G + P'_C) = 240/270 = 0.889 at the standard clock.
func (e *Element) InitialGSplit() float64 {
	g := e.GPU.Model().PeakGFLOPS
	c := float64(float64(e.CPU.NumCores()) * e.cfg.Xeon.CoreGFLOPS())
	return g / (g + c)
}

// AllocRows distributes total rows across len(weights) resources — the cores
// of a level-2 host split, the slabs of a hybrid join — in proportion to
// weights by the largest-remainder method, so the counts sum exactly to
// total. All-zero weights give everything to the first resource. The counts
// are written into dst's storage, grown only when it is too short, and the
// filled slice is returned; AllocRows(nil, ...) returns a fresh one.
func AllocRows(dst []int, total int, weights []float64) []int {
	n := len(weights)
	out := slices.Grow(dst[:0], n)[:n]
	clear(out)
	if total == 0 || n == 0 {
		return out
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		out[0] = total
		return out
	}
	assigned := 0
	for i, w := range weights {
		out[i] = int(float64(total) * w / sum)
		assigned += out[i]
	}
	// Hand the leftover rows (fewer than n, so no resource gets two) to the
	// largest remainders, the first of equal ones winning. A resource that
	// already got its row is the one whose count passed its exact share's
	// floor; the remainders are recomputed, bit for bit, rather than stored.
	for ; assigned < total; assigned++ {
		best, bestRem := -1, 0.0
		for i, w := range weights {
			exact := float64(total) * w / sum
			if out[i] > int(exact) {
				continue
			}
			if rem := exact - float64(out[i]); best < 0 || rem > bestRem {
				best, bestRem = i, rem
			}
		}
		out[best]++
	}
	return out
}
