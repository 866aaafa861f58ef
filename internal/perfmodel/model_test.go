package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestElementPeakMatchesPaper(t *testing.T) {
	// The paper quotes 280.5 GFLOPS for one compute element.
	if math.Abs(ElementPeakGFLOPS-280.48) > 0.1 {
		t.Fatalf("element peak %v, paper says 280.5", ElementPeakGFLOPS)
	}
}

func TestGPUEfficiencyMonotonic(t *testing.T) {
	g := DefaultGPU()
	prev := 0.0
	for _, n := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		e := g.Efficiency(n, n, n)
		if e <= prev {
			t.Fatalf("efficiency must rise with size: eff(%d)=%v prev=%v", n, e, prev)
		}
		prev = e
	}
	if prev >= g.MaxEfficiency {
		t.Fatal("efficiency must stay below the asymptote")
	}
}

func TestGPUEfficiencyBounds(t *testing.T) {
	g := DefaultGPU()
	f := func(m, n, k uint16) bool {
		e := g.Efficiency(int(m), int(n), int(k))
		return e >= 0 && e <= g.MaxEfficiency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGPUEfficiencyZeroDims(t *testing.T) {
	g := DefaultGPU()
	if g.Efficiency(0, 10, 10) != 0 || g.KernelSeconds(10, 0, 10) != 0 {
		t.Fatal("degenerate shapes must cost nothing")
	}
}

func TestGPURateApproachesPaperKernelRate(t *testing.T) {
	// At full 8192 tiles the kernel should reach roughly 85-92% of the 240
	// GFLOPS peak: the regime where the paper reports ~200 GFLOPS hybrid.
	g := DefaultGPU()
	r := g.Rate(8192, 8192, 8192)
	if r < 190 || r > 225 {
		t.Fatalf("large-tile GPU rate %v GFLOPS, want within [190, 225]", r)
	}
}

func TestGPULinpackShapeRate(t *testing.T) {
	// The Linpack update has k = NB = 1216: a noticeably lower rate than the
	// square kernel, but still the dominant contributor.
	g := DefaultGPU()
	square := g.Rate(8192, 8192, 8192)
	linpack := g.Rate(8192, 8192, 1216)
	if linpack >= square {
		t.Fatal("thin-k kernels must be slower than square kernels")
	}
	if linpack < 0.6*square {
		t.Fatalf("k=1216 rate %v too far below square rate %v", linpack, square)
	}
}

func TestGPUDownclocked(t *testing.T) {
	g := DefaultGPU()
	d := g.Downclocked()
	want := g.PeakGFLOPS * 575.0 / 750.0
	if math.Abs(d.PeakGFLOPS-want) > 1e-9 {
		t.Fatalf("downclocked peak %v, want %v", d.PeakGFLOPS, want)
	}
	if d.Rate(4096, 4096, 4096) >= g.Rate(4096, 4096, 4096) {
		t.Fatal("downclocked GPU must be slower")
	}
}

func TestKernelSecondsIncludesLaunch(t *testing.T) {
	g := DefaultGPU()
	tiny := g.KernelSeconds(1, 1, 1)
	if tiny < KernelLaunchSec {
		t.Fatalf("kernel time %v below launch overhead", tiny)
	}
}

func TestNaiveTransferMatchesPaperExample(t *testing.T) {
	// Section V.A: three 800 MB matrices at 500 MB/s + 5 GB/s take
	// 800*3/500 + 800*3/5000 = 5.28 s.
	tr := NaiveTransfer()
	bytes := int64(3 * 800 * 1e6)
	got := tr.Seconds(bytes)
	want := 5.28
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("naive transfer %v s, paper example says %v s", got, want)
	}
}

func TestChunkedFasterThanNaive(t *testing.T) {
	n := NaiveTransfer()
	c := DefaultTransfer()
	bytes := int64(512 << 20)
	if c.Seconds(bytes) >= n.Seconds(bytes) {
		t.Fatal("pinned chunked staging must beat the pageable path")
	}
}

func TestTransferZeroBytes(t *testing.T) {
	if DefaultTransfer().Seconds(0) != 0 {
		t.Fatal("zero-byte transfer must cost nothing")
	}
}

func TestTransferMonotonicInSize(t *testing.T) {
	tr := DefaultTransfer()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return tr.Seconds(x) <= tr.Seconds(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferEffectiveBandwidth(t *testing.T) {
	tr := DefaultTransfer()
	g := float64(1<<30) / tr.Seconds(1<<30) / 1e9
	// Effective rate is bounded by the slower hop.
	if g > PinnedLinkGBps || g < 0.8*PinnedLinkGBps {
		t.Fatalf("effective bandwidth %v GB/s out of expected range", g)
	}
}

func TestCPUCoreRateNearPaperMKL(t *testing.T) {
	// Four cores on a large DGEMM should land in the 35-40 GFLOPS band:
	// the paper's host-only Linpack is 196.7/5.49 = 35.8 GFLOPS.
	c := CoreForXeon(XeonE5540, 1, false)
	rate4 := 4 * c.Rate(4096, 4096, 4096, false)
	if rate4 < 35 || rate4 > 40 {
		t.Fatalf("4-core MKL-like rate %v, want within [35, 40]", rate4)
	}
}

func TestCPUCoreInterference(t *testing.T) {
	shared := CoreForXeon(XeonE5540, 1, true)
	clean := CoreForXeon(XeonE5540, 1, false)
	m := 2048
	if shared.Rate(m, m, m, true) >= clean.Rate(m, m, m, true) {
		t.Fatal("L2-shared core must slow down while comm is active")
	}
	if shared.Rate(m, m, m, false) != clean.Rate(m, m, m, false) {
		t.Fatal("without comm activity the cores must match")
	}
}

func TestCPUCoreInterferenceMagnitude(t *testing.T) {
	// The paper's example: a core dropping from 10 to 9 GFLOPS (about 10%).
	c := CoreForXeon(XeonE5540, 1, true)
	loss := 1 - c.Rate(4096, 4096, 4096, true)/c.Rate(4096, 4096, 4096, false)
	if loss < 0.05 || loss > 0.15 {
		t.Fatalf("interference loss %v, want around 10%%", loss)
	}
}

func TestCPUCoreBias(t *testing.T) {
	fast := CoreForXeon(XeonE5540, 1.03, false)
	slow := CoreForXeon(XeonE5540, 0.97, false)
	if fast.Rate(1024, 1024, 1024, false) <= slow.Rate(1024, 1024, 1024, false) {
		t.Fatal("bias must order core rates")
	}
}

func TestCPUSecondsConsistentWithRate(t *testing.T) {
	c := CoreForXeon(XeonE5540, 1, false)
	m, n, k := 512, 256, 128
	flops := 2 * float64(m) * float64(n) * float64(k)
	sec := c.Seconds(m, n, k, false)
	rate := flops / sec / 1e9
	if math.Abs(rate-c.Rate(m, n, k, false)) > 1e-9 {
		t.Fatal("Seconds and Rate disagree")
	}
}

func TestNetworkPointToPoint(t *testing.T) {
	n := DefaultNetwork()
	small := n.Seconds(0, false)
	if small != NetLatencySec {
		t.Fatalf("zero-byte message time %v, want latency %v", small, NetLatencySec)
	}
	cross := n.Seconds(0, true)
	if cross <= small {
		t.Fatal("inter-cabinet messages must pay the extra hop")
	}
	big := n.Seconds(5e9, false)
	if math.Abs(big-(NetLatencySec+1)) > 1e-6 {
		t.Fatalf("5 GB at 5 GB/s should take ~1 s, got %v", big)
	}
}

func TestBcastScalesLogarithmically(t *testing.T) {
	n := DefaultNetwork()
	b1 := n.BcastSeconds(1<<20, 2, false)
	b64 := n.BcastSeconds(1<<20, 64, false)
	if math.Abs(b64/b1-6) > 1e-9 {
		t.Fatalf("bcast(64)/bcast(2) = %v, want 6 (log2 ratio)", b64/b1)
	}
	if n.BcastSeconds(1<<20, 1, false) != 0 {
		t.Fatal("single-rank broadcast must be free")
	}
}
