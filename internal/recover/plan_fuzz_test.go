package recover

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzMakePlan derives recovery plans for fuzzed worlds of 2-8 ranks, block
// counts, failure sets and boundaries — optionally over a layout one earlier
// shrink already made irregular — and checks the properties every survivor
// relies on when it acts on its own copy of the plan.
func FuzzMakePlan(f *testing.F) {
	// ranks and blocks decode as 2+ranks%7 and 1+blocks%64: these seeds are
	// 4 ranks over 8 blocks, 6 over 12, 2 over 1 and 8 over 63.
	f.Add(uint8(2), uint8(7), uint8(0b0010), uint8(4), uint8(0))
	f.Add(uint8(2), uint8(7), uint8(0b0110), uint8(4), uint8(0))   // two members of one stripe
	f.Add(uint8(2), uint8(7), uint8(0b1001), uint8(4), uint8(0))   // a member and its holder
	f.Add(uint8(4), uint8(11), uint8(0b10100), uint8(7), uint8(3)) // after an earlier shrink
	f.Add(uint8(0), uint8(0), uint8(0b01), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(62), uint8(0b11111110), uint8(63), uint8(5))
	f.Fuzz(func(t *testing.T, ranks, blocks, mask, iter, pre uint8) {
		m := NewMembership(2 + int(ranks)%7)
		nblocks := 1 + int(blocks)%64
		l := Cyclic(nblocks, m.Live)
		if pre%2 == 1 && len(m.Live) > 2 {
			// An earlier shrink leaves an adopted, irregular layout.
			gone := []int{m.Live[int(pre/2)%len(m.Live)]}
			m = m.Shrink(gone)
			l, _ = l.Adopt(gone, m.Live)
		}
		var failed []int
		for i, r := range m.Live {
			if mask&(1<<i) != 0 {
				failed = append(failed, r)
			}
		}
		if len(failed) == len(m.Live) {
			failed = failed[1:] // someone must survive
		}
		k := int(iter) % (nblocks + 1)
		p := MakePlan(m, l, failed, k)
		checkPlan(t, m, l, failed, k, p)

		permuted := slices.Clone(failed)
		slices.Reverse(permuted)
		if len(permuted) > 2 {
			permuted[0], permuted[1] = permuted[1], permuted[0]
		}
		if q := MakePlan(m, l, permuted, k); !reflect.DeepEqual(p, q) {
			t.Fatalf("failed %v gives\n%s\nbut %v gives\n%s", failed, p, permuted, q)
		}
	})
}

// checkPlan asserts the plan's invariants against the membership and layout
// it was derived from.
func checkPlan(t *testing.T, m Membership, l Layout, failed []int, k int, p Plan) {
	t.Helper()
	stripes := Stripes(l.Owners, m.Live)
	rebuilt := map[int]int{}
	for i, rb := range p.Rebuilds {
		rebuilt[rb.Col]++
		if i > 0 && p.Rebuilds[i-1].Col >= rb.Col {
			t.Fatalf("rebuilds out of ascending column order: %v", p.Rebuilds)
		}
		if !slices.Contains(p.Members.Live, rb.Adopter) {
			t.Fatalf("column %d adopted by rank %d, not a survivor %v", rb.Col, rb.Adopter, p.Members.Live)
		}
		if p.Owners.Owners[rb.Col] != rb.Adopter {
			t.Fatalf("column %d rebuilt on rank %d but owned by %d", rb.Col, rb.Adopter, p.Owners.Owners[rb.Col])
		}
		if rb.Col >= k && rb.Source != FromReplay {
			t.Fatalf("trailing column %d (k=%d) rebuilt via %s", rb.Col, k, rb.Source)
		}
		if rb.Source == FromParity {
			s := stripes[rb.Stripe]
			if !slices.Contains(s.Cols, rb.Col) {
				t.Fatalf("column %d rebuilt from stripe %d, which holds %v", rb.Col, rb.Stripe, s.Cols)
			}
			if slices.Contains(failed, s.Holder) {
				t.Fatalf("column %d rebuilt from stripe %d, whose holder %d failed", rb.Col, rb.Stripe, s.Holder)
			}
		}
	}
	for c, o := range l.Owners {
		orphan := slices.Contains(failed, o)
		switch {
		case orphan && rebuilt[c] != 1:
			t.Fatalf("orphaned column %d appears in %d rebuilds", c, rebuilt[c])
		case !orphan && rebuilt[c] != 0:
			t.Fatalf("column %d of survivor %d is rebuilt", c, o)
		case !orphan && p.Owners.Owners[c] != o:
			t.Fatalf("column %d of survivor %d moved to rank %d", c, o, p.Owners.Owners[c])
		}
	}
}
