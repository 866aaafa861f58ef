package cluster

import (
	"fmt"
	"math"
	"testing"

	"tianhe/internal/perfmodel"
	"tianhe/internal/sim"
)

// withoutFleetKernel runs f with every fleet update on the portable loop.
func withoutFleetKernel(f func()) {
	old := useKernel
	useKernel = false
	defer func() { useKernel = old }()
	f()
}

// fleetPath is a way of applying the fleet update: apply updates the chunk
// in place and returns the raised slowest time.
type fleetPath struct {
	name  string
	apply func(f *fleet, it iteration, sl float64, c fleetChunk) float64
}

// fleetPaths are the update paths this host can run: the portable loop,
// and update with the kernel where the host has it.
func fleetPaths() []fleetPath {
	ps := []fleetPath{{"go", func(f *fleet, it iteration, sl float64, c fleetChunk) float64 {
		return f.updatePortable(it, sl, c.gpuScale, c.cpuRate, c.split, c.drift, c.noise)
	}}}
	if useKernel {
		ps = append(ps, fleetPath{"avx512", func(f *fleet, it iteration, sl float64, c fleetChunk) float64 {
			return f.update(it, sl, c.gpuScale, c.cpuRate, c.split, c.drift, c.noise)
		}})
	}
	return ps
}

// updateReference is the fleet-update contract spelled out one element at a
// time, clamps and maxima by Go's NaN-correct min and max: the oracle.
func updateReference(f *fleet, it iteration, sl float64, c fleetChunk) float64 {
	for i := range c.gpuScale {
		gs := min(max(c.gpuScale[i]+c.drift[i], 1-driftMax), 1+driftMax)
		c.gpuScale[i] = gs
		rg := float64(it.rgNominal * gs)
		load := min(f.loadFrac*c.noise[i], 0.6)
		rc := float64(c.cpuRate[i] * (1 - load))
		tg := c.split[i] * it.w / (rg * 1e9)
		tc := (1 - c.split[i]) * it.w / (rc * 1e9)
		sl = max(sl, tg, tc)
		if f.adaptive {
			c.split[i] = rg / (rg + rc)
		}
	}
	return sl
}

// fleetChunk is one chunk's state and draws.
type fleetChunk struct {
	gpuScale, cpuRate, split, drift, noise []float64
}

func (c fleetChunk) clone() fleetChunk {
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return fleetChunk{cp(c.gpuScale), cp(c.cpuRate), cp(c.split), cp(c.drift), cp(c.noise)}
}

// fleetCase is one fuzzable update: a chunk of n elements, an iteration and
// the slowest time so far, all drawn from seed. driftSD widens the drift
// draws past the model's own so that both clamps are hit; the noise factors
// reach past what loadFrac needs to hit the 0.6 load cap.
type fleetCase struct {
	f     *fleet
	it    iteration
	sl    float64
	chunk fleetChunk
}

func newFleetCase(seed uint64, n int, adaptive bool, driftSD float64) fleetCase {
	r := sim.NewRNG(seed)
	cleanCPU := 3 * perfmodel.CPUCoreGFLOPS * 0.97
	w := r.Range(1e9, 1e13)
	fc := fleetCase{
		f:  &fleet{adaptive: adaptive, loadFrac: r.Range(0.04, 0.22)},
		it: iteration{active: true, w: w, rgNominal: r.Range(50, 400)},
		chunk: fleetChunk{
			gpuScale: make([]float64, n), cpuRate: make([]float64, n), split: make([]float64, n),
			drift: make([]float64, n), noise: make([]float64, n),
		},
	}
	// Splits start near the balance a run settles at. In half the cases
	// they lean to the GPU under a light, even load, so that the slowest
	// time is a tg; in the rest the load spreads past the 0.6 cap and the
	// slowest time is mostly a tc.
	gpuHeavy := r.Intn(2) == 0
	c := fc.chunk
	for i := range n {
		c.gpuScale[i] = r.Range(1-driftMax, 1+driftMax)
		c.cpuRate[i] = cleanCPU * r.Range(0.9, 1.1)
		balance := fc.it.rgNominal / (fc.it.rgNominal + c.cpuRate[i]*(1-fc.f.loadFrac))
		c.drift[i] = r.Normal(0, driftSD)
		if gpuHeavy {
			c.split[i] = balance + (1-balance)*r.Range(0.1, 0.5)
			c.noise[i] = r.Range(0.8, 1.2)
		} else {
			c.split[i] = balance * r.Range(0.97, 1.03)
			c.noise[i] = r.Range(0.2, 4)
		}
	}
	// A quarter of the cases start above every element's time, a quarter
	// at a random time of their order, the rest at zero as every run does.
	switch r.Intn(4) {
	case 0:
		fc.sl = w / 1e9
	case 1:
		fc.sl = r.Range(0, w/1e11)
	}
	return fc
}

// checkFleetCase runs fc on updateReference and on every path, and fails
// at the first drift factor, split or slowest time whose bits differ.
func checkFleetCase(t *testing.T, name string, fc fleetCase) {
	t.Helper()
	want := fc.chunk.clone()
	wantSl := updateReference(fc.f, fc.it, fc.sl, want)
	for _, p := range fleetPaths() {
		c := fc.chunk.clone()
		sl := p.apply(fc.f, fc.it, fc.sl, c)
		for i := range c.gpuScale {
			if math.Float64bits(c.gpuScale[i]) != math.Float64bits(want.gpuScale[i]) {
				t.Fatalf("%s %s: element %d drift factor %v, reference %v", name, p.name, i, c.gpuScale[i], want.gpuScale[i])
			}
			if math.Float64bits(c.split[i]) != math.Float64bits(want.split[i]) {
				t.Fatalf("%s %s: element %d split %v, reference %v", name, p.name, i, c.split[i], want.split[i])
			}
		}
		if math.Float64bits(sl) != math.Float64bits(wantSl) {
			t.Fatalf("%s %s: slowest %v, reference %v", name, p.name, sl, wantSl)
		}
	}
}

// TestFleetKernelContract holds every update path to the scalar statement
// bit for bit — the drift factors, the splits and the returned slowest time
// — on random chunks of every length 1..64 (whole groups of eight, ragged
// tails and chunks too short for the kernel), under both policies, with
// draws that cross both drift clamps and the 0.6 load cap (the test counts
// them). The max needs no NaN handling: the contract's inputs keep every
// time finite and positive, so the kernel's VMAXPD, the portable loop's
// compares and Go's max agree on every input the model can produce.
func TestFleetKernelContract(t *testing.T) {
	var low, high, capped int
	for n := 1; n <= drawChunk; n++ {
		for _, adaptive := range []bool{true, false} {
			for rep := range 4 {
				fc := newFleetCase(uint64(1000*n+rep), n, adaptive, 0.06)
				for i := range n {
					switch g := fc.chunk.gpuScale[i] + fc.chunk.drift[i]; {
					case g < 1-driftMax:
						low++
					case g > 1+driftMax:
						high++
					}
					if fc.f.loadFrac*fc.chunk.noise[i] > 0.6 {
						capped++
					}
				}
				checkFleetCase(t, fmt.Sprintf("n=%d adaptive=%v rep=%d", n, adaptive, rep), fc)
			}
		}
	}
	if low == 0 || high == 0 || capped == 0 {
		t.Fatalf("draws hit the low clamp %d, the high clamp %d and the load cap %d times; want each", low, high, capped)
	}
}

// FuzzFleetKernel runs fuzzed chunks through every update path and
// requires the reference's bits.
func FuzzFleetKernel(f *testing.F) {
	for _, n := range []uint8{1, 7, 8, 9, 16, 63, 64} {
		f.Add(uint64(n), n, true, 0.06)
		f.Add(uint64(n)+100, n, false, 0.004)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, adaptive bool, driftSD float64) {
		if n == 0 || n > drawChunk || !(driftSD >= 0 && driftSD <= 1) {
			return
		}
		checkFleetCase(t, fmt.Sprintf("seed=%d n=%d adaptive=%v driftSD=%v", seed, n, adaptive, driftSD),
			newFleetCase(seed, int(n), adaptive, driftSD))
	})
}
