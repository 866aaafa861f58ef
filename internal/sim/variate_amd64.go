package sim

// variates8 draws n lanes, n a multiple of 8 and at most 64, of
// Normal(mean, sd) from the SplitMix64 states at state into out, eight at a
// time on AVX-512F+DQ, and advances each state by its two draws. With exp
// set it takes Exp of every lane whose draw x has |x| ≤ 708 and leaves the
// others at x, reporting them as set bits of oob (bit i for lane i).
//
//go:noescape
func variates8(state *uint64, n int, mean, sd float64, exp bool, out *float64) (oob uint64)

// centered8 writes draws 1..n of the SplitMix64 stream at state, n a
// positive multiple of 8, to out as Float64() - 0.5, eight at a time on
// AVX-512F+DQ. It does not advance the state; the caller does.
//
//go:noescape
func centered8(state uint64, n int, out *float64)
