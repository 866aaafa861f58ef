package recover

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tianhe/internal/blas"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the shrink-mapping golden from the current rules")

func TestStripesInvariants(t *testing.T) {
	for _, q := range []int{2, 3, 4, 6, 8} {
		m := NewMembership(q)
		l := Cyclic(4*q+3, m.Live)
		checkStripes(t, l.Owners, m.Live)
		// After a failure and adoption the layout is irregular; the stripe
		// rules must still hold.
		next := m.Shrink([]int{q / 2})
		nl, _ := l.Adopt([]int{q / 2}, next.Live)
		if len(next.Live) >= 2 {
			checkStripes(t, nl.Owners, next.Live)
		}
	}
}

func checkStripes(t *testing.T, owners, live []int) {
	t.Helper()
	stripes := Stripes(owners, live)
	covered := map[int]bool{}
	for _, s := range stripes {
		seen := map[int]bool{}
		for _, c := range s.Cols {
			if covered[c] {
				t.Fatalf("column %d in two stripes", c)
			}
			covered[c] = true
			o := owners[c]
			if seen[o] {
				t.Fatalf("stripe %d has two columns owned by rank %d", s.Index, o)
			}
			seen[o] = true
			if o == s.Holder {
				t.Fatalf("stripe %d holder %d owns member column %d", s.Index, s.Holder, c)
			}
		}
		if len(s.Cols) > len(live)-1 {
			t.Fatalf("stripe %d has %d members in a %d-element world", s.Index, len(s.Cols), len(live))
		}
	}
	for c := range owners {
		if !covered[c] {
			t.Fatalf("column %d not in any stripe", c)
		}
	}
}

func TestXORRoundTrip(t *testing.T) {
	r := sim.NewStream(7, "recover/test")
	cols := make([][]float64, 5)
	parity := make([]float64, 64)
	for i := range cols {
		cols[i] = make([]float64, 64)
		for j := range cols[i] {
			cols[i][j] = r.Float64()*2 - 1
		}
		XORInto(parity, cols[i])
	}
	// Lose column 2; XOR of parity and the others must give it back
	// bit-for-bit.
	rec := append([]float64(nil), parity...)
	for i, c := range cols {
		if i != 2 {
			XORInto(rec, c)
		}
	}
	for j := range rec {
		if rec[j] != cols[2][j] {
			t.Fatalf("bit drift at %d: got %x want %x", j, rec[j], cols[2][j])
		}
	}
}

func TestSwapRowsCommutesWithXOR(t *testing.T) {
	r := sim.NewStream(11, "recover/swap")
	const rows, nb = 8, 3
	a := make([]float64, rows*nb)
	b := make([]float64, rows*nb)
	for i := range a {
		a[i], b[i] = r.Float64(), r.Float64()
	}
	// Parity of the swapped members == the swapped parity, for a whole
	// panel's interchanges applied the way the elastic solver applies them
	// to members and parity blocks alike.
	ipiv := []int{6, 1, 7, 5}
	swap := func(block []float64) { blas.Dlaswp(matrix.FromColMajor(rows, nb, rows, block), ipiv, 0, len(ipiv)) }
	p := make([]float64, rows*nb)
	XORInto(p, a)
	XORInto(p, b)
	swap(p)
	swap(a)
	swap(b)
	q := make([]float64, rows*nb)
	XORInto(q, a)
	XORInto(q, b)
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("swap does not commute with XOR at %d", i)
		}
	}
}

func TestPlanFallsBackToReplayWhenHolderDies(t *testing.T) {
	m := NewMembership(4)
	l := Cyclic(8, m.Live)
	stripes := Stripes(l.Owners, m.Live)
	s := StripeOf(stripes, 0)
	// Kill both a member's owner and the stripe holder in one boundary:
	// parity is unusable for that column, so the plan must replay it.
	p := MakePlan(m, l, []int{l.Owners[0], s.Holder}, 4)
	for _, r := range p.Rebuilds {
		if r.Col == 0 && r.Source != FromReplay {
			t.Fatalf("col 0 rebuilt via %s, want replay (holder dead)", r.Source)
		}
	}
	// A lone failure of the same owner keeps the parity path.
	p = MakePlan(m, l, []int{l.Owners[0]}, 4)
	for _, r := range p.Rebuilds {
		if r.Col == 0 && r.Source != FromParity {
			t.Fatalf("col 0 rebuilt via %s, want parity", r.Source)
		}
	}
}

// The golden shrink mapping: two sequential failures in a 6-element world,
// membership renumbering, adoption, and rebuild plans, diffed byte-for-byte
// so the deterministic contract every survivor relies on can never drift
// silently. Regenerate deliberately with
// `go test ./internal/recover -run TestShrinkMappingGolden -update`.
func TestShrinkMappingGolden(t *testing.T) {
	var b strings.Builder
	m := NewMembership(6)
	l := Cyclic(12, m.Live)
	fmt.Fprintf(&b, "world 6, 12 block-columns, cyclic\n%s\n", m)
	for _, s := range Stripes(l.Owners, m.Live) {
		fmt.Fprintf(&b, "  stripe %d cols %v holder %d\n", s.Index, s.Cols, s.Holder)
	}
	for _, step := range []struct {
		failed []int
		k      int
	}{{[]int{2}, 5}, {[]int{0}, 8}} {
		p := MakePlan(m, l, step.failed, step.k)
		b.WriteString(p.String())
		m, l = p.Members, p.Owners
		for _, s := range Stripes(l.Owners, m.Live) {
			fmt.Fprintf(&b, "  stripe %d cols %v holder %d\n", s.Index, s.Cols, s.Holder)
		}
	}
	got := b.String()
	const path = "testdata/shrink.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("shrink mapping drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// The failure detector agrees on the failed set across all survivors, stays
// on the virtual clock, and survives the death of the candidate root.
func TestHeartbeatAgreesOnRootDeath(t *testing.T) {
	const q = 4
	w := mpi.NewWorld(mpi.Config{Size: q})
	live := NewMembership(q).Live
	verdicts := make([][]int, q)
	w.Run(func(c *mpi.Comm) {
		if c.Rank() == 0 { // the candidate root itself dies
			c.Die()
			return
		}
		verdicts[c.Rank()] = Heartbeat(c, live, 100, 101)
	})
	for r := 1; r < q; r++ {
		if len(verdicts[r]) != 1 || verdicts[r][0] != 0 {
			t.Fatalf("rank %d verdict %v, want [0]", r, verdicts[r])
		}
	}
}

func TestHeartbeatHealthyRound(t *testing.T) {
	const q = 3
	w := mpi.NewWorld(mpi.Config{Size: q})
	live := NewMembership(q).Live
	w.Run(func(c *mpi.Comm) {
		if failed := Heartbeat(c, live, 100, 101); len(failed) > 0 {
			t.Errorf("rank %d saw failures %v in a healthy world", c.Rank(), failed)
		}
	})
}
