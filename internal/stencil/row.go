package stencil

import "tianhe/internal/cpufeat"

// The row-kernel contract (DESIGN.md §5): an interior cell with centre c and
// neighbours w, e (along X), s, n (along Y), d, u (along Z) becomes
//
//	sum = ((((w+e)+s)+n)+d)+u
//	t   = 6*c
//	out = c + alpha*(sum - t)
//
// in that order, every product rounded before its add or subtract — never a
// fused multiply-add. The order names nothing but the cell, so the grid
// cannot depend on slab depth, row split, vector width or which kernel ran;
// Reference, which spells the same order out per cell, is the oracle.

// useKernel is chosen once, from the host's features. Tests lower it to
// compare the kernels; nothing else writes it.
var useKernel = cpufeat.Host.AVX2

// updateRow writes the interior cells 1..nx-2 of out from the centre row c
// and its four neighbour rows s (y-1), n (y+1), d (z-1) and u (z+1), all of
// length nx = len(c) ≥ 3. Whole groups of four cells run on the AVX2 kernel
// where the host has it; the rest, the interior of the window that starts
// one cell before them, on the portable loop.
func updateRow(out, c, s, n, d, u []float64) {
	lo := 0
	if cells := (len(c) - 2) &^ 3; useKernel && cells > 0 {
		rowAVX2(cells, alpha, &out[1], &c[1], &s[1], &n[1], &d[1], &u[1])
		lo = cells
	}
	rowPortable(out[lo:], c[lo:], s[lo:], n[lo:], d[lo:], u[lo:])
}

// rowPortable is updateRow's loop in Go, over every interior cell.
func rowPortable(out, c, s, n, d, u []float64) {
	nx := len(c)
	out, s, n, d, u = out[:nx], s[:nx], n[:nx], d[:nx], u[:nx]
	for i := 1; i < nx-1; i++ {
		ci := c[i]
		sum := c[i-1] + c[i+1] + s[i] + n[i] + d[i] + u[i]
		out[i] = ci + float64(alpha*(sum-float64(6*ci)))
	}
}
