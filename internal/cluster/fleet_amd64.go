package cluster

// fleetAVX512 applies the fleet-update contract to the first n elements (n
// a positive multiple of 8) of the arrays at gpuScale, cpuRate, split,
// drift and noise, eight at a time on AVX-512F, writing back the drift
// factors and, with adaptive set, the splits. It returns sl raised to the
// elements' slowest time.
//
//go:noescape
func fleetAVX512(n int, rgNominal, w, loadFrac, sl float64, adaptive bool, gpuScale, cpuRate, split, drift, noise *float64) float64
