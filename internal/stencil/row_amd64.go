package stencil

// rowAVX2 is updateRow's loop for cells (a multiple of 4) cells, each
// pointer at the first of them, four cells per step on AVX2; the centre row
// is also read one cell before and after.
//
//go:noescape
func rowAVX2(cells int, alpha float64, out, c, s, n, d, u *float64)
