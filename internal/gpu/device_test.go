package gpu

import (
	"errors"
	"testing"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
)

func TestAllocAccounting(t *testing.T) {
	d := New(Config{})
	b, err := d.Alloc(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 8*1000*1000 {
		t.Fatalf("used = %d", d.MemUsed())
	}
	b.Free()
	if d.MemUsed() != 0 {
		t.Fatalf("after free used = %d", d.MemUsed())
	}
}

func TestAllocTextureLimit(t *testing.T) {
	d := New(Config{})
	_, err := d.Alloc(8193, 10)
	var te ErrTextureLimit
	if !errors.As(err, &te) {
		t.Fatalf("expected texture-limit error, got %v", err)
	}
	if b, err := d.Alloc(8192, 10); err != nil || b == nil {
		t.Fatalf("8192 must be allowed: %v", err)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	d := New(Config{MemBytes: 8 * 100})
	if _, err := d.Alloc(10, 2); err != nil {
		t.Fatal(err)
	}
	_, err := d.Alloc(10, 9)
	var oom ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestAllocInvalidShape(t *testing.T) {
	d := New(Config{})
	if _, err := d.Alloc(0, 5); err == nil {
		t.Fatal("zero-extent allocation must fail")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d := New(Config{})
	b, _ := d.Alloc(4, 4)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	b.Free()
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	d := New(Config{})
	src := matrix.NewDense(16, 16)
	src.FillRandom(sim.NewRNG(1))
	buf, _ := d.Alloc(16, 16)
	up := d.Upload(src, buf, 0)
	if up.Duration() <= 0 {
		t.Fatal("upload must take time")
	}
	down := d.DownloadBytes(buf.Bytes(), up.End)
	if down.Start < up.End {
		t.Fatal("download must wait for its earliest time")
	}
	if !buf.Data().Equal(src) {
		t.Fatal("upload corrupted data")
	}
}

func TestUploadShapeMismatchPanics(t *testing.T) {
	d := New(Config{})
	buf, _ := d.Alloc(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	d.Upload(matrix.NewDense(5, 4), buf, 0)
}

func TestGemmComputesRealResult(t *testing.T) {
	d := New(Config{})
	r := sim.NewRNG(2)
	ah := matrix.NewDense(24, 16)
	bh := matrix.NewDense(16, 20)
	ah.FillRandom(r)
	bh.FillRandom(r)
	ab, _ := d.Alloc(24, 16)
	bb, _ := d.Alloc(16, 20)
	cb, _ := d.Alloc(24, 20)
	upA := d.Upload(ah, ab, 0)
	upB := d.Upload(bh, bb, 0)
	k := d.Gemm(1, ab, bb, 0, cb, upA, upB)
	if k.Start < upB.End {
		t.Fatal("kernel must start after its input transfers")
	}
	out := cb.Data()
	want := matrix.NewDense(24, 20)
	blas.DgemmNaive(blas.NoTrans, blas.NoTrans, 1, ah, bh, 0, want)
	if diff := out.MaxDiff(want); diff > 1e-12 {
		t.Fatalf("device DGEMM wrong by %v", diff)
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	d := New(Config{})
	a, _ := d.Alloc(4, 5)
	b, _ := d.Alloc(6, 7)
	c, _ := d.Alloc(4, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("inner-dim mismatch should panic")
		}
	}()
	d.Gemm(1, a, b, 0, c)
}

func TestUseAfterFreePanics(t *testing.T) {
	d := New(Config{})
	b, _ := d.Alloc(4, 4)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("upload into freed buffer should panic")
		}
	}()
	d.Upload(matrix.NewDense(4, 4), b, 0)
}

func TestVirtualModeSkipsData(t *testing.T) {
	d := New(Config{Virtual: true})
	b, err := d.Alloc(8192, 8192) // 512 MiB of virtual data: no real backing
	if err != nil {
		t.Fatal(err)
	}
	if b.Data() != nil {
		t.Fatal("virtual buffers must not allocate backing data")
	}
	sp := d.GemmVirtual(8192, 8192, 8192)
	if sp.Duration() <= 0 {
		t.Fatal("virtual kernel must still book time")
	}
}

func TestVirtualTransferBytes(t *testing.T) {
	d := New(Config{Virtual: true})
	up := d.UploadBytes(1<<30, 0)
	want := perfmodel.DefaultTransfer().Seconds(1 << 30)
	if up.Duration() != want {
		t.Fatalf("upload duration %v, want %v", up.Duration(), want)
	}
	dn := d.DownloadBytes(1<<20, up.End)
	if dn.Start != up.End {
		t.Fatal("DMA engine must serialize transfers")
	}
}

func TestDMASerializesKernelOverlaps(t *testing.T) {
	// Two uploads then a kernel: the uploads share the DMA engine and
	// serialize; the kernel runs on the queue and may only start after both.
	d := New(Config{Virtual: true})
	u1 := d.UploadBytes(100<<20, 0)
	u2 := d.UploadBytes(100<<20, 0)
	if u2.Start != u1.End {
		t.Fatal("uploads must serialize on the DMA engine")
	}
	k := d.GemmVirtual(1024, 1024, 1024, u1, u2)
	if k.Start != u2.End {
		t.Fatalf("kernel start %v, want %v", k.Start, u2.End)
	}
	// A second kernel with no deps starts right after the first: the queue
	// was idle during the uploads, demonstrating transfer/compute overlap.
	k2 := d.GemmVirtual(1024, 1024, 1024)
	if k2.Start != k.End {
		t.Fatal("kernels must serialize on the command queue")
	}
}

func TestResetClearsState(t *testing.T) {
	d := New(Config{})
	b, _ := d.Alloc(10, 10)
	_ = b
	d.UploadBytes(1<<20, 0)
	d.Reset()
	if d.MemUsed() != 0 || d.DMA.Available() != 0 || d.Queue.Available() != 0 {
		t.Fatal("reset must clear memory and engines")
	}
}

func TestKernelDurationMatchesModel(t *testing.T) {
	d := New(Config{Virtual: true})
	sp := d.GemmVirtual(2048, 1024, 512)
	want := perfmodel.DefaultGPU().KernelSeconds(2048, 1024, 512)
	if sp.Duration() != want {
		t.Fatalf("kernel duration %v, want %v", sp.Duration(), want)
	}
}

func TestDownclockedDeviceSlower(t *testing.T) {
	fast := New(Config{Virtual: true})
	slow := New(Config{Virtual: true, Model: perfmodel.DefaultGPU().Downclocked()})
	f := fast.GemmVirtual(4096, 4096, 4096)
	s := slow.GemmVirtual(4096, 4096, 4096)
	if s.Duration() <= f.Duration() {
		t.Fatal("downclocked device must be slower")
	}
}
