package cluster

import "tianhe/internal/cpufeat"

// The fleet-update contract (DESIGN.md §5): in iteration it, an element
// with drift factor g, aggregate CPU rate c, split s and this iteration's
// drift and noise draws d and z becomes
//
//	g'   = min(max(g+d, 1-driftMax), 1+driftMax)
//	rg   = rgNominal*g'
//	load = min(loadFrac*z, 0.6)
//	rc   = c*(1-load)
//	tg   = (s*w) / (rg*1e9)
//	tc   = ((1-s)*w) / (rc*1e9)
//	s'   = rg / (rg+rc)          (adaptive policy only)
//
// in that order, every product and quotient rounded before the next
// operation takes it — never a fused multiply-add — and the iteration's
// slowest time is the max of every tg and tc. The inputs keep every time
// finite and positive (g' is clamped around 1, load is at most 0.6, rates
// and flops are positive), so that max is exact and order-independent, needs
// no NaN or signed-zero handling, and cannot depend on chunking, vector
// width or which path ran.

// useKernel is chosen once, from the host's features. Tests lower it to
// compare the paths; nothing else writes it.
var useKernel = cpufeat.Host.AVX512F

// update applies the fleet-update contract of iteration it to the chunk's
// elements and returns sl raised to their slowest time. Whole groups of
// eight elements run on the AVX-512F kernel where the host has it; the rest
// on the portable loop.
func (f *fleet) update(it iteration, sl float64, gpuScale, cpuRate, split, drift, noise []float64) float64 {
	lo := 0
	if m := len(gpuScale) &^ 7; useKernel && m > 0 {
		sl = fleetAVX512(m, it.rgNominal, it.w, f.loadFrac, sl, f.adaptive,
			&gpuScale[0], &cpuRate[0], &split[0], &drift[0], &noise[0])
		lo = m
	}
	return f.updatePortable(it, sl, gpuScale[lo:], cpuRate[lo:], split[lo:], drift[lo:], noise[lo:])
}

// updatePortable is update's loop in Go, over every element of the chunk.
// Its clamps and maxima are plain compares: for the finite inputs of the
// contract they pick what Go's min and max would, without the NaN-correct
// sequence those lower to.
func (f *fleet) updatePortable(it iteration, sl float64, gpuScale, cpuRate, split, drift, noise []float64) float64 {
	n := len(gpuScale)
	cpuRate, split, drift, noise = cpuRate[:n], split[:n], drift[:n], noise[:n]
	for i := range n {
		// Thermal random walk, clamped.
		gs := gpuScale[i] + drift[i]
		if gs < 1-driftMax {
			gs = 1 - driftMax
		} else if gs > 1+driftMax {
			gs = 1 + driftMax
		}
		gpuScale[i] = gs

		rg := float64(it.rgNominal * gs)
		// Production-run CPU availability: communication progress, driver
		// threads and look-ahead bookkeeping consume cores — load the
		// offline training phase never observes.
		load := float64(f.loadFrac * noise[i])
		if load > 0.6 {
			load = 0.6
		}
		rc := float64(cpuRate[i] * (1 - load))

		tg := split[i] * it.w / (rg * 1e9)
		tc := (1 - split[i]) * it.w / (rc * 1e9)
		if tg > sl {
			sl = tg
		}
		if tc > sl {
			sl = tc
		}
		if f.adaptive {
			// The Section IV update from this iteration's measured rates,
			// used next iteration.
			split[i] = rg / (rg + rc)
		}
	}
	return sl
}
