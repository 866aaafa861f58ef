//go:build !amd64

package sim

// variates8 is never reached: only amd64 hosts report AVX-512.
func variates8(state *uint64, n int, mean, sd float64, exp bool, out *float64) (oob uint64) {
	panic("sim: no variate kernel on this architecture")
}

// centered8 is never reached, for the same reason.
func centered8(state uint64, n int, out *float64) {
	panic("sim: no variate kernel on this architecture")
}
