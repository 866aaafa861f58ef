//go:build !amd64

package cluster

// fleetAVX512 is never reached: only amd64 hosts report AVX-512.
func fleetAVX512(n int, rgNominal, w, loadFrac, sl float64, adaptive bool, gpuScale, cpuRate, split, drift, noise *float64) float64 {
	panic("cluster: no fleet kernel on this architecture")
}
