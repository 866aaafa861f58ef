package hpl

import (
	"testing"

	"tianhe/internal/sim/simtest"
)

// TestGenerateDigest pins the HPL test problem bit for bit: an FNV digest
// over every element of A, column by column, then of b, recorded before the
// uniform fill moved onto a batch kernel. n = 1003 = 125·8 + 3, so every
// column ends in a tail that an 8-lane fill leaves to the scalar loop. The
// drivers' column-slab fill must give the same digest on any worker count.
func TestGenerateDigest(t *testing.T) {
	const wantA, wantB uint64 = 0xdfc12092ce76977b, 0xd53586049795ace2
	for _, workers := range append([]int{1}, parityWorkers...) {
		a, b := generate(1003, 2009, workers)
		da, db := simtest.NewDigest(), simtest.NewDigest()
		for j := 0; j < a.Cols; j++ {
			for _, v := range a.Col(j) {
				da.Float(v)
			}
		}
		for _, v := range b {
			db.Float(v)
		}
		if got := da.Sum64(); got != wantA {
			t.Errorf("%d workers: A digest %#x, want %#x", workers, got, wantA)
		}
		if got := db.Sum64(); got != wantB {
			t.Errorf("%d workers: b digest %#x, want %#x", workers, got, wantB)
		}
	}
}
