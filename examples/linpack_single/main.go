// linpack_single runs the Linpack benchmark two ways on one compute
// element: a real, residual-checked solve at laptop scale whose trailing
// updates run on the built-in BLAS DGEMM across four workers, and the timing
// simulation at the paper's headline size N = 46000-class, reproducing the
// 196.7 GFLOPS / 70.1%-of-peak result of Figure 9.
package main

import (
	"fmt"
	"os"

	"tianhe"
	"tianhe/internal/perfmodel"
)

func main() {
	// Part 1: a real solve. Everything computes; the HPL residual check
	// guards the whole optimized stack.
	const n, nb = 768, 64
	fmt.Printf("Real Linpack at N=%d, NB=%d ... ", n, nb)
	res, err := tianhe.RunLinpack(n, 42, tianhe.LinpackOptions{NB: nb, Workers: 4})
	if err != nil {
		fmt.Fprintln(os.Stderr, "failed:", err)
		os.Exit(1)
	}
	fmt.Printf("residual %.3g (threshold 16) — PASSED\n\n", res.Residual)

	// Part 2: the paper-scale timing simulation, all five configurations.
	const bigN = 46080
	fmt.Printf("Simulated Linpack at N=%d (the paper's headline size):\n\n", bigN)
	fmt.Printf("%-16s %10s %12s\n", "configuration", "GFLOPS", "% of peak")
	var cpu, acmlg, both float64
	for _, v := range tianhe.Variants {
		r := tianhe.SimulateLinpack(tianhe.SimulateConfig{
			N: bigN, Variant: v, Seed: 42,
			PageableLibrary: v == tianhe.ACMLG,
		})
		fmt.Printf("%-16s %10.1f %11.1f%%\n", v, r.GFLOPS,
			r.GFLOPS/perfmodel.ElementPeakGFLOPS*100)
		switch v {
		case tianhe.CPUOnly:
			cpu = r.GFLOPS
		case tianhe.ACMLG:
			acmlg = r.GFLOPS
		case tianhe.ACMLGBoth:
			both = r.GFLOPS
		}
	}
	fmt.Printf("\nspeedup over the vendor library: %.2fx (paper: 3.3x)\n", both/acmlg)
	fmt.Printf("speedup over host-only:          %.2fx (paper: 5.49x)\n", both/cpu)
}
