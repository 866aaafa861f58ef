//go:build !amd64

package cpufeat

// read reports no feature: the module's SIMD kernels are amd64 only.
func read() words { return words{} }
