package recover

import (
	"fmt"
	"strings"
)

// Source says how a lost block-column comes back.
type Source int

const (
	// FromParity: XOR the stripe's surviving member columns into the parity
	// block — bit-exact, one column of traffic per survivor in the stripe.
	// Only factored columns are parity-protected: a factored column is
	// final, since the distributed LU never swaps its rows again, so the
	// parity block always equals the XOR of its members.
	FromParity Source = iota
	// FromReplay: regenerate the column from the deterministic generator
	// (the right-hand side's from its own) and replay the factorization's
	// effect on it — each iteration's pivot swaps, panel triangular solve
	// and trailing update — from the factored prefix, whose panels stand as
	// they were broadcast. Exact because, by the BLAS accumulation-order
	// contract, a column's bits do not depend on which element updates it
	// or on what else that element holds. Used for trailing (not yet
	// factored) columns. A factored column whose stripe also lost its
	// holder or another member is marked FromReplay too: it is beyond the
	// code's strength, and a solver holding no panel history for it cannot
	// rebuild it.
	FromReplay
)

func (s Source) String() string {
	if s == FromParity {
		return "parity"
	}
	return "replay"
}

// Rebuild is one lost column and the survivor that reconstructs it.
type Rebuild struct {
	Col     int
	Adopter int    // original rank adopting the column
	Source  Source // parity XOR or deterministic replay
	Stripe  int    // stripe index for FromParity, -1 otherwise
}

// Plan is everything the survivors need to agree on at a failure boundary:
// the shrunk membership, the post-adoption layout, and the rebuild list in
// ascending column order (parity rebuilds of factored columns land before
// the replays that read them). Pure function of its inputs — every
// survivor derives the identical plan locally.
type Plan struct {
	Failed    []int
	Iter      int // iteration boundary k: columns < k are factored
	Members   Membership
	Owners    Layout
	Adoptions []Adoption
	Rebuilds  []Rebuild
}

// MakePlan computes the recovery plan for failures detected at iteration
// boundary k, given the pre-failure membership and layout. Stripes are
// evaluated against the pre-failure state — that is the mapping the parity
// was encoded under. A factored orphan uses its stripe's parity unless the
// failure also took the stripe's holder or another member's owner;
// trailing orphans always replay.
func MakePlan(m Membership, l Layout, failed []int, k int) Plan {
	failed = sortedCopy(failed)
	gone := make(map[int]bool, len(failed))
	for _, r := range failed {
		gone[r] = true
	}
	next := m.Shrink(failed)
	owners, ads := l.Adopt(failed, next.Live)
	stripes := Stripes(l.Owners, m.Live)
	p := Plan{Failed: failed, Iter: k, Members: next, Owners: owners, Adoptions: ads}
	for _, a := range ads {
		r := Rebuild{Col: a.Col, Adopter: a.To, Source: FromReplay, Stripe: -1}
		if a.Col < k {
			if s := StripeOf(stripes, a.Col); s != nil && parityUsable(s, a.Col, k, l.Owners, gone) {
				r.Source, r.Stripe = FromParity, s.Index
			}
		}
		p.Rebuilds = append(p.Rebuilds, r)
	}
	return p
}

// parityUsable reports whether stripe s can reconstruct lost column col at
// boundary k: the holder survived and every other factored member column
// still has a live owner to contribute it.
func parityUsable(s *Stripe, col, k int, owners []int, gone map[int]bool) bool {
	if gone[s.Holder] {
		return false
	}
	for _, c := range s.Cols {
		if c != col && c < k && gone[owners[c]] {
			return false
		}
	}
	return true
}

// String renders the golden form of the plan.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fail %v at k=%d -> %s\n", p.Failed, p.Iter, p.Members)
	fmt.Fprintf(&b, "  owners %v\n", p.Owners.Owners)
	for _, r := range p.Rebuilds {
		fmt.Fprintf(&b, "  rebuild col %d on rank %d via %s", r.Col, r.Adopter, r.Source)
		if r.Source == FromParity {
			fmt.Fprintf(&b, " (stripe %d)", r.Stripe)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
