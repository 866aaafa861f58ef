//go:build !amd64

package stencil

// rowAVX2 is never reached: only amd64 hosts report AVX2.
func rowAVX2(cells int, alpha float64, out, c, s, n, d, u *float64) {
	panic("stencil: no row kernel on this architecture")
}
