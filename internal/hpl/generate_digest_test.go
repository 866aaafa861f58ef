package hpl

import (
	"testing"

	"tianhe/internal/sim/simtest"
)

// TestGenerateDigest pins the HPL test problem bit for bit: an FNV digest
// over every element of A, column by column, then of b, recorded before the
// uniform fill moved onto a batch kernel. n = 1003 = 125·8 + 3, so every
// column ends in a tail that an 8-lane fill leaves to the scalar loop.
func TestGenerateDigest(t *testing.T) {
	const wantA, wantB uint64 = 0xdfc12092ce76977b, 0xd53586049795ace2
	a, b := Generate(1003, 2009)
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
		t.Errorf("A digest %#x, want %#x", got, wantA)
	}
	if got := db.Sum64(); got != wantB {
		t.Errorf("b digest %#x, want %#x", got, wantB)
	}
}
