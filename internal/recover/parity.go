package recover

import "math"

// Parity is RAID-style XOR over the IEEE-754 bit patterns of final factored
// block-columns. XOR — not the Huang–Abraham floating-point sums the ABFT
// layer uses for silent corruption — because reconstruction must be
// bit-exact: the acceptance bar is factors byte-identical to a run that was
// shrunk from the start, and floating-point subtraction cannot promise
// that. A stripe's parity block lives on a holder that owns none of the
// stripe's columns, so losing one element loses at most one block per
// stripe and parity XOR the surviving members recovers it exactly.

// Stripe is one parity group: member block-columns with pairwise-distinct
// owners, plus the holder element storing their XOR.
type Stripe struct {
	Index  int
	Cols   []int // member columns, ascending (factorization order)
	Holder int   // original rank holding the parity block; owns no member
}

// Stripes partitions the block-columns into parity stripes for the given
// ownership and live set. Greedy in factorization order: a stripe opens at
// the first unassigned column with holder live[(i0+q-1) mod q] — one left
// of the opening owner's live position, the rotation that spreads parity
// storage evenly — and absorbs following columns while their owners stay
// distinct from both the members so far and the holder, capped at q-1
// members. On the initial cyclic layout this reduces to "q-1 consecutive
// columns, the unique absent owner holds the parity"; after adoptions the
// same rule keeps producing valid (if shorter) stripes. A world of fewer
// than two live elements has no one to hold parity: nil.
func Stripes(owners []int, live []int) []Stripe {
	q := len(live)
	if q < 2 {
		return nil
	}
	idx := make(map[int]int, q)
	for i, r := range live {
		idx[r] = i
	}
	var stripes []Stripe
	var cur *Stripe
	var curOwners map[int]bool
	for b, o := range owners {
		oi, ok := idx[o]
		if !ok {
			panic("recover: stripe over a column owned by a dead rank")
		}
		if cur != nil && (curOwners[o] || o == cur.Holder || len(cur.Cols) >= q-1) {
			stripes = append(stripes, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &Stripe{Index: len(stripes), Holder: live[(oi+q-1)%q]}
			curOwners = map[int]bool{}
		}
		cur.Cols = append(cur.Cols, b)
		curOwners[o] = true
	}
	if cur != nil {
		stripes = append(stripes, *cur)
	}
	return stripes
}

// StripeOf returns the stripe containing col, or nil.
func StripeOf(stripes []Stripe, col int) *Stripe {
	for i := range stripes {
		for _, c := range stripes[i].Cols {
			if c == col {
				return &stripes[i]
			}
		}
	}
	return nil
}

// XORInto folds src into dst bitwise over the float64 bit patterns; this is
// both the encode and the decode of the parity code (XOR is its own
// inverse). Panics on length mismatch — stripes always carry full blocks.
func XORInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("recover: parity block size mismatch")
	}
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(dst[i]) ^ math.Float64bits(v))
	}
}
