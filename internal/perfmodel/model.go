// Package perfmodel centralizes the analytic performance models of the
// TianHe-1 hardware this reproduction simulates: the RV770 GPU's DGEMM rate
// as a function of tile shape, the Xeon cores' rates including the shared-L2
// interference the paper describes, the two-hop PCI-E transfer costs, and the
// QDR InfiniBand network. Every duration booked on a sim.Timeline anywhere in
// the repository comes from these models, so calibration lives in one place.
//
// The constants are calibrated so that the *shapes* of the paper's figures
// reproduce (who wins, by what factor, where crossovers fall); EXPERIMENTS.md
// records paper-versus-measured values for each figure.
package perfmodel

import (
	"math"

	"tianhe/internal/sim"
)

// Hardware constants of one TianHe-1 compute element and its interconnect.
const (
	// GPUPeakGFLOPS is the double-precision peak of one RV770 chip at the
	// standard 750 MHz engine clock.
	GPUPeakGFLOPS = 240.0
	// GPUDownclockRatio is the 575/750 MHz engine down-clock applied for the
	// long multi-node runs (Section VI.A of the paper).
	GPUDownclockRatio = 575.0 / 750.0
	// CPUCoreGFLOPS is the double-precision peak of one Xeon E5540 core
	// (2.53 GHz x 4 flops/cycle).
	CPUCoreGFLOPS = 10.12
	// CoresPerCPU is the core count of the Xeon socket in a compute element.
	CoresPerCPU = 4
	// ComputeCores is the number of cores doing DGEMM work; the fourth core
	// is dedicated to GPU communication.
	ComputeCores = 3
	// ElementPeakGFLOPS is the aggregate peak the paper quotes for one
	// compute element (240 GPU + 4 x 10.12 CPU).
	ElementPeakGFLOPS = GPUPeakGFLOPS + CoresPerCPU*CPUCoreGFLOPS
	// HostPanelGFLOPS is the effective host rate of the recursive panel
	// factorization. The recursion converts most panel flops into DGEMMs of
	// half-panels, so the rate sits below but not far from the host DGEMM
	// rate; only the pivot searches and rank-1 leaves are memory-bound.
	HostPanelGFLOPS = 18.0
	// HostTrsmGFLOPS is the host rate of the U12 triangular solve, a BLAS3
	// operation running slightly below the straight DGEMM rate.
	HostTrsmGFLOPS = 26.0

	// HostLinkGBps is the host-memory to PCI-E buffer copy bandwidth for
	// plain pageable transfers ("on the order of hundreds of MBps").
	HostLinkGBps = 0.5
	// PinnedLinkGBps is the effective host-side bandwidth when staging
	// through the limited pinned-memory pool with chunked ping-pong copies.
	PinnedLinkGBps = 2.6
	// PCIeGPUGBps is the PCI-E buffer to GPU local-memory bandwidth
	// (PCI-E 2.0, 4-8 GBps; we use the paper's example value).
	PCIeGPUGBps = 5.0
	// PageableLinkGBps is the host-side bandwidth when the library is handed
	// plain pageable memory it cannot stage through the pinned pool, as
	// happens when unmodified HPL calls the vendor DGEMM on its malloc'd
	// matrix.
	PageableLinkGBps = 0.75
	// PinnedPoolBytes is how much pinned memory one allocation may hold
	// under CAL (4 MB), the staging granule of the DMA engine.
	PinnedPoolBytes = 4 << 20
	// TextureLimit is the maximum extent of a 2D resource on RV770: matrices
	// larger than 8192 in either dimension must be split into tasks.
	TextureLimit = 8192
	// GPULocalMemBytes is the local memory of one RV770 chip (1 GB).
	GPULocalMemBytes = 1 << 30

	// NetLatencySec is the QDR InfiniBand point-to-point latency (1.2 us).
	NetLatencySec = 1.2e-6
	// NetBandwidthGBps is the per-link InfiniBand bandwidth (40 Gbps).
	NetBandwidthGBps = 5.0
	// InterCabinetLatencySec is the extra hop through the second-level
	// switch between cabinets.
	InterCabinetLatencySec = 0.9e-6

	// KernelLaunchSec is the fixed cost of dispatching one GPU kernel.
	KernelLaunchSec = 60e-6
	// TransferSetupSec is the fixed cost of programming one DMA transfer.
	TransferSetupSec = 25e-6
)

// GPU models one RV770 chip's DGEMM execution rate.
type GPU struct {
	// PeakGFLOPS is the double-precision peak at the configured clock.
	PeakGFLOPS float64
	// MaxEfficiency is the fraction of peak the tuned kernel reaches on
	// asymptotically large tiles.
	MaxEfficiency float64
	// DimHalf is the tile dimension at which each axis reaches half of its
	// asymptotic contribution: small tiles run far below peak.
	DimHalf float64
}

// DefaultGPU returns the RV770 model at the standard 750 MHz clock.
func DefaultGPU() GPU {
	return GPU{PeakGFLOPS: GPUPeakGFLOPS, MaxEfficiency: 0.86, DimHalf: 150}
}

// Downclocked returns the same GPU model at the reduced engine clock used
// for the long runs (575 MHz).
func (g GPU) Downclocked() GPU {
	g.PeakGFLOPS *= GPUDownclockRatio
	return g
}

// Efficiency returns the fraction of peak a DGEMM kernel of shape m x n x k
// achieves. Each dimension contributes a saturating factor d/(d+DimHalf):
// thin tiles (small k in the Linpack update, small trailing matrices at the
// end of a factorization) run well below peak, which is what makes the
// static peak-ratio split wrong and the adaptive split profitable.
func (g GPU) Efficiency(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	s := func(d int) float64 { return float64(d) / (float64(d) + g.DimHalf) }
	return g.MaxEfficiency * s(m) * s(n) * s(k)
}

// KernelSeconds returns the execution time of a DGEMM kernel of shape
// m x n x k, including the fixed launch cost.
func (g GPU) KernelSeconds(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	return KernelLaunchSec + flops/(g.Efficiency(m, n, k)*g.PeakGFLOPS*1e9)
}

// Rate returns the effective GFLOPS of a kernel of the given shape.
func (g GPU) Rate(m, n, k int) float64 {
	sec := g.KernelSeconds(m, n, k)
	if sec == 0 {
		return 0
	}
	return 2 * float64(m) * float64(n) * float64(k) / sec / 1e9
}

// Transfer models the two-hop CPU-GPU path.
type Transfer struct {
	// HostGBps is the host-memory to PCI-E buffer bandwidth in use: the
	// pageable rate for naive transfers, the pinned staging rate otherwise.
	HostGBps float64
	// DeviceGBps is the PCI-E buffer to GPU local memory bandwidth.
	DeviceGBps float64
	// Chunked selects pinned ping-pong staging, which overlaps the two hops
	// per PinnedPoolBytes chunk instead of serializing them.
	Chunked bool
}

// DefaultTransfer returns the pinned, chunked staging path the optimized
// library uses.
func DefaultTransfer() Transfer {
	return Transfer{HostGBps: PinnedLinkGBps, DeviceGBps: PCIeGPUGBps, Chunked: true}
}

// NaiveTransfer returns the unoptimized pageable path of the paper's Section
// V.A example: both hops paid in full, 0.5 GB/s host side.
func NaiveTransfer() Transfer {
	return Transfer{HostGBps: HostLinkGBps, DeviceGBps: PCIeGPUGBps, Chunked: false}
}

// PageableTransfer returns the path the vendor library is stuck with when a
// caller hands it pageable memory: a somewhat faster memcpy than the worst
// case of the paper's example, but still no pinned staging.
func PageableTransfer() Transfer {
	return Transfer{HostGBps: PageableLinkGBps, DeviceGBps: PCIeGPUGBps, Chunked: false}
}

// Seconds returns the time to move n bytes across the CPU-GPU path.
func (t Transfer) Seconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	b := float64(bytes)
	hostSec := b / (t.HostGBps * 1e9)
	devSec := b / (t.DeviceGBps * 1e9)
	if t.Chunked {
		// Ping-pong through the pinned pool: the slower hop dominates and
		// one chunk of the faster hop cannot be hidden.
		chunk := math.Min(b, float64(PinnedPoolBytes))
		slow := math.Max(hostSec, devSec)
		fastChunk := math.Min(hostSec, devSec) * chunk / b
		return TransferSetupSec + slow + fastChunk
	}
	return TransferSetupSec + hostSec + devSec
}

// CPUCore models one Xeon core executing the DGEMM kernels of the host math
// library.
type CPUCore struct {
	// PeakGFLOPS is the core's double-precision peak.
	PeakGFLOPS float64
	// MaxEfficiency is the fraction of peak the tuned library reaches.
	MaxEfficiency float64
	// DimHalf is the saturation constant of the small-size penalty.
	DimHalf float64
	// L2SharedWithComm marks the core that shares its L2 cache with the
	// communication core (the E5450-style pairing the paper discusses);
	// transfers running on the comm core degrade it.
	L2SharedWithComm bool
	// InterferenceLoss is the fractional rate loss on the L2-shared core
	// while CPU-GPU communication is active.
	InterferenceLoss float64
	// Bias is a deterministic per-core manufacturing/DVFS rate factor
	// (around 1); it is what makes equal static core splits suboptimal.
	Bias float64
}

// Rate returns the core's effective GFLOPS on a DGEMM slice of shape
// m x n x k while commActive reports whether GPU communication is in flight.
func (c CPUCore) Rate(m, n, k int, commActive bool) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	s := func(d int) float64 { return float64(d) / (float64(d) + c.DimHalf) }
	eff := c.MaxEfficiency * s(m) * s(n) * s(k)
	rate := c.PeakGFLOPS * eff * c.Bias
	if commActive && c.L2SharedWithComm {
		rate *= 1 - c.InterferenceLoss
	}
	return rate
}

// Seconds returns the execution time of a DGEMM slice on the core.
func (c CPUCore) Seconds(m, n, k int, commActive bool) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	return flops / (c.Rate(m, n, k, commActive) * 1e9)
}

// Network models the QDR InfiniBand fabric.
type Network struct {
	LatencySec    float64
	BandwidthGBps float64
	// InterCabinetSec is added per message crossing cabinets through the
	// second-level switch.
	InterCabinetSec float64
}

// DefaultNetwork returns the TianHe-1 interconnect model.
func DefaultNetwork() Network {
	return Network{
		LatencySec:      NetLatencySec,
		BandwidthGBps:   NetBandwidthGBps,
		InterCabinetSec: InterCabinetLatencySec,
	}
}

// Seconds returns the time to move bytes point-to-point; crossCabinet adds
// the second-level switch hop.
func (n Network) Seconds(bytes int64, crossCabinet bool) float64 {
	t := n.LatencySec + float64(bytes)/(n.BandwidthGBps*1e9)
	if crossCabinet {
		t += n.InterCabinetSec
	}
	return t
}

// BcastSeconds models a binomial-tree broadcast of bytes among p ranks, the
// collective HPL uses for panel broadcasts.
func (n Network) BcastSeconds(bytes int64, p int, crossCabinet bool) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(sim.Log2(float64(p)))
	return rounds * n.Seconds(bytes, crossCabinet)
}
