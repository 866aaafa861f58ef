package cluster

import (
	"errors"
	"slices"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// A healthy elastic run must solve correctly with parity on, and encode a
// nonzero amount of checksum traffic.
func TestElasticHealthySolves(t *testing.T) {
	res, err := SolveElastic(ElasticConfig{N: 256, NB: 32, Ranks: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("residual %g failed", res.Residual)
	}
	if res.Epochs != 0 || len(res.Failed) != 0 {
		t.Fatalf("healthy run reported failures: %+v", res)
	}
	if res.ParityBytes == 0 {
		t.Fatal("no parity traffic on a healthy encoded run")
	}
}

// The tentpole acceptance at solver level: kill an element mid-run; the
// survivors must finish forward with a passing residual and factors (and
// pivots, and solution) byte-identical to a run distributed over the
// survivors from the start.
func TestElasticFailureBitIdenticalToShrunkFromStart(t *testing.T) {
	cfg := ElasticConfig{N: 256, NB: 32, Ranks: 4, Seed: 42}
	healthy, err := SolveElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{0, 2} { // root death and mid-rank death
		cfg := cfg
		cfg.Failures = []FailureSpec{{Rank: victim, At: healthy.Seconds * 0.4}}
		el, err := SolveElastic(cfg)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if !el.Passed {
			t.Fatalf("victim %d: residual %g failed after elastic recovery", victim, el.Residual)
		}
		if el.Epochs != 1 || len(el.Failed) != 1 || el.Failed[0] != victim {
			t.Fatalf("victim %d: epochs=%d failed=%v", victim, el.Epochs, el.Failed)
		}
		if len(el.RecoverySeconds) != 1 || el.RecoverySeconds[0] <= 0 {
			t.Fatalf("victim %d: recovery stall not measured: %v", victim, el.RecoverySeconds)
		}
		ref, err := SolveElastic(ElasticConfig{
			N: cfg.N, NB: cfg.NB, Ranks: cfg.Ranks, Seed: cfg.Seed,
			StartLive: el.FinalLive, StartOwners: el.FinalOwners,
		})
		if err != nil {
			t.Fatalf("victim %d reference: %v", victim, err)
		}
		if !el.Factors.Equal(ref.Factors) {
			t.Fatalf("victim %d: factors differ from shrunk-from-start run (max diff %g)", victim, el.Factors.MaxDiff(ref.Factors))
		}
		for k := range el.Pivots {
			for i := range el.Pivots[k] {
				if el.Pivots[k][i] != ref.Pivots[k][i] {
					t.Fatalf("victim %d: pivot drift at (%d,%d)", victim, k, i)
				}
			}
		}
		if matrix.VecMaxDiff(el.X, ref.X) != 0 {
			t.Fatalf("victim %d: solutions differ", victim)
		}
		if el.Residual != ref.Residual {
			t.Fatalf("victim %d: residuals differ: %g vs %g", victim, el.Residual, ref.Residual)
		}
	}
}

// K sequential failures down to the minimum surviving quorum (2 elements),
// exercising recovery under an already-adopted (irregular) layout and the
// parity re-encode between epochs.
func TestElasticSequentialFailuresToQuorumFloor(t *testing.T) {
	cfg := ElasticConfig{N: 256, NB: 32, Ranks: 4, Seed: 7}
	healthy, err := SolveElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = []FailureSpec{
		{Rank: 1, At: healthy.Seconds * 0.3},
		{Rank: 3, At: healthy.Seconds * 0.6},
	}
	el, err := SolveElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !el.Passed {
		t.Fatalf("residual %g failed after two elastic recoveries", el.Residual)
	}
	if el.Epochs != 2 || len(el.FinalLive) != 2 {
		t.Fatalf("epochs=%d live=%v, want 2 epochs and 2 survivors", el.Epochs, el.FinalLive)
	}
	ref, err := SolveElastic(ElasticConfig{
		N: cfg.N, NB: cfg.NB, Ranks: cfg.Ranks, Seed: cfg.Seed,
		StartLive: el.FinalLive, StartOwners: el.FinalOwners,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !el.Factors.Equal(ref.Factors) {
		t.Fatalf("factors differ from shrunk-from-start run (max diff %g)", el.Factors.MaxDiff(ref.Factors))
	}
}

// The quorum floor is enforced up front.
func TestElasticQuorumFloorRejected(t *testing.T) {
	_, err := SolveElastic(ElasticConfig{N: 128, NB: 32, Ranks: 3, Seed: 1,
		Failures: []FailureSpec{{Rank: 0, At: 0}, {Rank: 1, At: sim.Time(1)}}})
	if err == nil {
		t.Fatal("expected quorum-floor rejection")
	}
}

// SolveElastic with no failures is the 2-D solver on a 1 x Q grid: x and the
// residual agree bit for bit, with the grid's look-ahead off and on.
func TestElasticMatchesGrid1xQ(t *testing.T) {
	for _, s := range []struct{ n, nb, q int }{{512, 64, 4}, {768, 64, 4}, {640, 32, 3}, {384, 32, 2}} {
		el, err := SolveElastic(ElasticConfig{N: s.n, NB: s.nb, Ranks: s.q, Seed: 2009})
		if err != nil {
			t.Fatalf("%+v elastic: %v", s, err)
		}
		for _, la := range []bool{false, true} {
			g, err := SolveDistributed2D(Dist2DConfig{N: s.n, NB: s.nb, P: 1, Q: s.q, Seed: 2009, Variant: element.ACMLGBoth, Lookahead: la})
			if err != nil {
				t.Fatalf("%+v grid lookahead=%v: %v", s, la, err)
			}
			if d := matrix.VecMaxDiff(el.X, g.X); d != 0 || el.Residual != g.Residual {
				t.Errorf("%+v lookahead=%v: x differs by %g, residuals %g vs %g", s, la, d, el.Residual, g.Residual)
			}
		}
	}
}

// Two deaths at one boundary that take two members of a parity stripe, or a
// member and the stripe's holder, exceed the XOR code's strength of one.
// Every survivor derives the same plan, so all of them stop there and the
// solve returns a ParityExceededError rather than crashing the process.
func TestElasticStripeDoubleDeathIsAnError(t *testing.T) {
	cfg := ElasticConfig{N: 256, NB: 32, Ranks: 4, Seed: 42}
	healthy, err := SolveElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want ParityExceededError
	}{
		{"two stripe members", ParityExceededError{Failed: []int{1, 2}, Iter: 3, Col: 1}},
		{"column 0's owner and its stripe's holder", ParityExceededError{Failed: []int{0, 3}, Iter: 3, Col: 0}},
	} {
		cfg := cfg
		for _, r := range c.want.Failed {
			cfg.Failures = append(cfg.Failures, FailureSpec{Rank: r, At: healthy.Seconds / 2})
		}
		_, err := SolveElastic(cfg)
		var pe *ParityExceededError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want a ParityExceededError", c.name, err)
			continue
		}
		if !slices.Equal(pe.Failed, c.want.Failed) || pe.Iter != c.want.Iter || pe.Col != c.want.Col {
			t.Errorf("%s: error %+v, want %+v", c.name, *pe, c.want)
		}
	}
}

// A pre-shrunk start is checked up front: live ranks must be ascending
// ranks of the world, and every block-column, the right-hand side's too,
// must have a live owner.
func TestElasticRejectsBadStartLayout(t *testing.T) {
	base := ElasticConfig{N: 128, NB: 32, Ranks: 3, Seed: 1}
	for _, c := range []struct {
		name        string
		live, owner []int
	}{
		{"rank outside the world", []int{0, 3}, nil},
		{"live not ascending", []int{2, 0}, nil},
		{"owners without rhs", nil, []int{0, 1, 2, 0}},
		{"owner not live", []int{0, 2}, []int{0, 1, 2, 0, 2}},
	} {
		cfg := base
		cfg.StartLive, cfg.StartOwners = c.live, c.owner
		if _, err := SolveElastic(cfg); err == nil {
			t.Errorf("%s: live %v, owners %v accepted", c.name, c.live, c.owner)
		}
	}
}
