package element

import (
	"math"
	"testing"
)

func TestVariantProperties(t *testing.T) {
	cases := []struct {
		v             Variant
		gpu, ad, pipe bool
		name          string
	}{
		{CPUOnly, false, false, false, "CPU"},
		{ACMLG, true, false, false, "ACMLG"},
		{ACMLGAdaptive, true, true, false, "ACMLG+adaptive"},
		{ACMLGPipe, true, false, true, "ACMLG+pipe"},
		{ACMLGBoth, true, true, true, "ACMLG+both"},
	}
	for _, c := range cases {
		if c.v.UsesGPU() != c.gpu || c.v.Adaptive() != c.ad || c.v.Pipelined() != c.pipe {
			t.Fatalf("variant %v flags wrong", c.v)
		}
		if c.v.String() != c.name {
			t.Fatalf("variant name %q, want %q", c.v.String(), c.name)
		}
	}
	if len(Variants) != 5 {
		t.Fatal("the paper evaluates exactly five configurations")
	}
}

func TestElementPeak(t *testing.T) {
	el := New(Config{Seed: 1})
	if math.Abs(el.PeakGFLOPS()-280.48) > 0.1 {
		t.Fatalf("element peak %v, paper quotes 280.5", el.PeakGFLOPS())
	}
}

func TestInitialGSplitMatchesPaper(t *testing.T) {
	// Fig. 10: "The initial value is set to 0.889 according to the peak
	// performance of the CPU and GPU." (GPU 240 over 240 + 3 x 10.12.)
	el := New(Config{Seed: 1})
	if math.Abs(el.InitialGSplit()-0.889) > 0.002 {
		t.Fatalf("initial GSplit %v, paper says 0.889", el.InitialGSplit())
	}
}

func TestNowTracksAllResources(t *testing.T) {
	el := New(Config{Seed: 2, Virtual: true})
	if el.Now() != 0 {
		t.Fatal("fresh element must be at time zero")
	}
	el.GPU.UploadBytes(1<<20, 0)
	after := el.Now()
	if after <= 0 {
		t.Fatal("Now must see the DMA booking")
	}
	el.CPU.Core(1).GemmVirtual(4096, 4096, 4096, false, 0)
	if el.Now() <= after {
		t.Fatal("Now must see core bookings")
	}
}

func TestResetRestoresZero(t *testing.T) {
	el := New(Config{Seed: 3, Virtual: true})
	el.GPU.GemmVirtual(512, 512, 512)
	el.CPU.Core(0).GemmVirtual(512, 512, 512, false, 0)
	el.Reset()
	if el.Now() != 0 {
		t.Fatal("reset must zero the element clock")
	}
}

func TestSetRecordingCoversEveryTimeline(t *testing.T) {
	el := New(Config{Seed: 5, Virtual: true})
	for _, on := range []bool{false, true} {
		el.SetRecording(on)
		for _, tl := range el.Timelines() {
			before := len(tl.Spans())
			busy := tl.Busy()
			tl.Book("op", 0, 1)
			if got := len(tl.Spans()) - before; (got == 1) != on {
				t.Fatalf("recording %v: %s retained %d spans for one booking", on, tl.Name(), got)
			}
			if tl.Busy() != busy+1 {
				t.Fatalf("recording %v: %s busy %g, want %g", on, tl.Name(), tl.Busy(), busy+1)
			}
		}
	}
}

func TestCustomCoreCount(t *testing.T) {
	el := New(Config{Seed: 4, CPUCores: 4})
	if el.CPU.NumCores() != 4 {
		t.Fatalf("cores = %d", el.CPU.NumCores())
	}
}

func TestAllocRows(t *testing.T) {
	rows := AllocRows(10, []float64{0.5, 0.25, 0.25})
	if rows[0] != 5 || rows[1]+rows[2] != 5 {
		t.Fatalf("AllocRows = %v", rows)
	}
	total := 0
	for _, r := range AllocRows(7, []float64{0.33, 0.33, 0.34}) {
		total += r
	}
	if total != 7 {
		t.Fatalf("allocation must sum exactly: %d", total)
	}
	if got := AllocRows(0, []float64{1, 1}); got[0] != 0 || got[1] != 0 {
		t.Fatal("zero rows must allocate nothing")
	}
	// All-zero weights used to divide by zero in the hybrid runner's copy
	// (int(NaN) shares); the guard hands everything to the first resource.
	if got := AllocRows(9, []float64{0, 0, 0}); got[0] != 9 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("zero-sum weights = %v, want [9 0 0]", got)
	}
}

func TestAllocRowsSkewed(t *testing.T) {
	rows := AllocRows(100, []float64{0.9, 0.05, 0.05})
	if rows[0] != 90 || rows[1] != 5 || rows[2] != 5 {
		t.Fatalf("skewed allocation = %v", rows)
	}
}

// TestAllocRowsTieRulesAgree justifies keeping one copy of the two
// largest-remainder implementations the repository used to carry. They
// differed only in how a resource that just received a leftover row is kept
// from winning again — the hybrid runner's copy marked its remainder -1, the
// task-graph scheduler's decremented it — and because the leftover is always
// smaller than the number of resources, no resource is ever asked twice, so
// both rules give identical shares.
func TestAllocRowsTieRulesAgree(t *testing.T) {
	ref := func(total int, weights []float64, used func(rem float64) float64) ([]int, int) {
		var sum float64
		for _, w := range weights {
			sum += w
		}
		out := make([]int, len(weights))
		rems := make([]float64, len(weights))
		assigned := 0
		for i, w := range weights {
			exact := float64(total) * w / sum
			out[i] = int(exact)
			assigned += out[i]
			rems[i] = exact - float64(out[i])
		}
		leftover := total - assigned
		for ; assigned < total; assigned++ {
			best := 0
			for i := range rems {
				if rems[i] > rems[best] {
					best = i
				}
			}
			out[best]++
			rems[best] = used(rems[best])
		}
		return out, leftover
	}
	mark := func(float64) float64 { return -1 }
	decrement := func(rem float64) float64 { return rem - 1 }

	cases := []struct {
		total   int
		weights []float64
	}{
		{10, []float64{0.5, 0.25, 0.25}},
		{7, []float64{0.33, 0.33, 0.34}},
		{100, []float64{0.9, 0.05, 0.05}},
		{5, []float64{1, 1, 1}},       // exact three-way remainder tie
		{2, []float64{1, 1, 1, 1, 1}}, // fewer rows than resources
		{1, []float64{0, 0, 1}},
		{1151, []float64{0.371, 0, 0.629}}, // a core sitting out
		{46079, []float64{1e-9, 1, 1e9}},
		{3, []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}},
		{1 << 20, []float64{3, 5, 7, 11, 13}},
	}
	for _, c := range cases {
		a, leftover := ref(c.total, c.weights, mark)
		b, _ := ref(c.total, c.weights, decrement)
		got := AllocRows(c.total, c.weights)
		if leftover >= len(c.weights) {
			t.Errorf("total %d weights %v: leftover %d not below %d resources", c.total, c.weights, leftover, len(c.weights))
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if a[i] != b[i] || got[i] != a[i] {
				t.Errorf("total %d weights %v: mark rule %v, decrement rule %v, AllocRows %v", c.total, c.weights, a, b, got)
				break
			}
		}
		if sum != c.total {
			t.Errorf("total %d weights %v: shares %v sum to %d", c.total, c.weights, got, sum)
		}
	}
}
