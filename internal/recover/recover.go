// Package recover is the elastic element-failure recovery core: the pure,
// deterministic bookkeeping that lets a distributed LU run shrink past a
// dead compute element and resume forward without a global restart.
//
// The pieces compose in failure order. Membership tracks the surviving
// original ranks and renumbers them densely (the golden shrink mapping, in
// the ULFM spirit but simulated). Layout records which surviving rank owns
// each global block-column; Adopt reassigns a dead element's columns
// round-robin over the survivors. Stripes partitions the block-columns into
// parity groups — every stripe's columns have distinct owners and a holder
// that owns none of them, so one element's death loses at most one block
// per stripe and the XOR parity block reconstructs it bit-exactly.
// MakePlan folds the three into a rebuild plan: which columns each adopter
// reconstructs, and whether from parity or by deterministic replay.
//
// Everything here is a pure function of (membership, layout, iteration):
// every survivor computes the identical plan with no communication, which
// is what makes the recovery protocol in internal/cluster deterministic.
package recover

import (
	"fmt"
	"sort"
	"strings"
)

// Membership is the set of surviving original ranks of a world that
// started with World elements. Epoch counts completed shrinks.
type Membership struct {
	World int
	Epoch int
	Live  []int // ascending original ranks
}

// NewMembership returns the epoch-0 membership of a q-element world.
func NewMembership(q int) Membership {
	if q <= 0 {
		panic("recover: membership needs a positive world size")
	}
	live := make([]int, q)
	for i := range live {
		live[i] = i
	}
	return Membership{World: q, Live: live}
}

// Shrink removes the failed ranks and advances the epoch. Ranks not
// currently live are ignored; the survivors keep their relative order —
// that ordering IS the renumbering contract, golden-tested so it can never
// drift silently between the ranks computing it independently.
func (m Membership) Shrink(failed []int) Membership {
	gone := make(map[int]bool, len(failed))
	for _, r := range failed {
		gone[r] = true
	}
	next := Membership{World: m.World, Epoch: m.Epoch + 1}
	for _, r := range m.Live {
		if !gone[r] {
			next.Live = append(next.Live, r)
		}
	}
	if len(next.Live) == 0 {
		panic("recover: shrink left no survivors")
	}
	return next
}

// Renumber returns the dense post-shrink rank for every original rank
// (length World), -1 for the dead. Survivors are numbered in ascending
// original-rank order.
func (m Membership) Renumber() []int {
	ren := make([]int, m.World)
	for i := range ren {
		ren[i] = -1
	}
	for i, r := range m.Live {
		ren[r] = i
	}
	return ren
}

// String renders the golden form: epoch, live set, and renumbering.
func (m Membership) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d live %v renumber [", m.Epoch, m.Live)
	for orig, nr := range m.Renumber() {
		if orig > 0 {
			b.WriteByte(' ')
		}
		if nr < 0 {
			fmt.Fprintf(&b, "%d:x", orig)
		} else {
			fmt.Fprintf(&b, "%d:%d", orig, nr)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Layout maps each global block-column to the original rank that owns it.
type Layout struct {
	Owners []int
}

// Cyclic deals nblocks columns over the live ranks round-robin — the
// 1-D block-cyclic distribution the distributed LU starts from.
func Cyclic(nblocks int, live []int) Layout {
	if len(live) == 0 {
		panic("recover: cyclic layout needs live ranks")
	}
	owners := make([]int, nblocks)
	for b := range owners {
		owners[b] = live[b%len(live)]
	}
	return Layout{Owners: owners}
}

// Adoption records one orphaned column changing hands.
type Adoption struct {
	Col, From, To int
}

// Adopt reassigns every column owned by a failed rank round-robin over the
// survivors, in ascending column order. The rule is positional — the i-th
// orphan goes to live[i mod len(live)] — so every survivor derives the
// identical new layout without communicating.
func (l Layout) Adopt(failed, live []int) (Layout, []Adoption) {
	gone := make(map[int]bool, len(failed))
	for _, r := range failed {
		gone[r] = true
	}
	next := Layout{Owners: append([]int(nil), l.Owners...)}
	var ads []Adoption
	for b, o := range next.Owners {
		if gone[o] {
			to := live[len(ads)%len(live)]
			ads = append(ads, Adoption{Col: b, From: o, To: to})
			next.Owners[b] = to
		}
	}
	return next, ads
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
