package stencil

import (
	"testing"

	"tianhe/internal/sim/simtest"
)

// digestConfig is the real grid the stencil-graph benchmark sweeps.
func digestConfig() Config {
	return Config{NX: 128, NY: 128, NZ: 128, Steps: 4, BlockZ: 8, Seed: 2009}
}

// gridDigest is an FNV digest over the bits of every cell.
func gridDigest(grid []float64) uint64 {
	d := simtest.NewDigest()
	for _, v := range grid {
		d.Float(v)
	}
	return d.Sum64()
}

// TestGridDigests pins the 128³ initial condition and the grid Reference
// computes from it, recorded before the row kernel and the batch fill
// replaced the per-cell loop and the scalar draws.
func TestGridDigests(t *testing.T) {
	const wantInit, wantRef uint64 = 0x56d84b5bddccd273, 0x3c8cac9865dae0c6
	if got := gridDigest(New(digestConfig()).buf[0]); got != wantInit {
		t.Errorf("initial grid digest %#x, want %#x", got, wantInit)
	}
	if got := gridDigest(Reference(digestConfig())); got != wantRef {
		t.Errorf("Reference digest %#x, want %#x", got, wantRef)
	}
}
