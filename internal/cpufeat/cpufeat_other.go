//go:build !amd64 || purego

package cpufeat

// read reports no feature: the module's SIMD kernels are amd64 only, and the
// purego build keeps every one of them off, leaving the portable paths.
func read() words { return words{} }
