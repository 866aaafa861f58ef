package adaptive

import (
	"math"
	"testing"
)

func TestQuarantineDiscardsStores(t *testing.T) {
	d := NewDatabaseG(16, 1e12, 0.8)
	w := 3e11
	d.Store(w, 0.95)
	d.Quarantine()
	if !d.Quarantined() {
		t.Fatal("not quarantined")
	}
	d.Store(w, 0.1) // a rate measured against lost hardware
	if got := d.Lookup(w); got != 0.95 {
		t.Fatalf("quarantined lookup %v, want the pre-outage 0.95", got)
	}
	d.Rewarm(0) // instant full trust
	if d.Quarantined() {
		t.Fatal("rewarm did not lift the quarantine")
	}
	if got := d.Lookup(w); got != 0.95 {
		t.Fatalf("post-instant-rewarm lookup %v, want 0.95", got)
	}
}

func TestRewarmTrustHalfLife(t *testing.T) {
	const initial = 0.8
	// wStale's bucket is learned before the outage and never re-measured;
	// its lookups expose the database-wide trust directly.
	wStale, wFresh := 2e11, 8e11
	learned := 0.96
	for _, halfLife := range []float64{1, 4, 8} {
		d := NewDatabaseG(16, 1e12, initial)
		d.Store(wStale, learned)
		d.Store(wFresh, 0.9)
		d.Quarantine()
		d.Rewarm(halfLife)

		// Right after recovery: zero trust, lookups back at the initial
		// peak ratio.
		if got := d.Lookup(wStale); got != initial {
			t.Fatalf("h=%v: lookup right after rewarm %v, want %v", halfLife, got, initial)
		}
		for k := 1; k <= 12; k++ {
			d.Store(wFresh, 0.9) // each fresh measurement rebuilds trust
			trust := 1 - math.Pow(0.5, float64(k)/halfLife)
			want := initial + (learned-initial)*trust
			got := d.Lookup(wStale)
			// Once trust passes 0.999 the warming phase ends and stale
			// buckets return their learned value exactly.
			if 1-trust < 1e-3 {
				want = learned
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("h=%v after %d stores: lookup %v, want %v", halfLife, k, got, want)
			}
		}
	}
}

func TestRewarmFreshBucketsTrusted(t *testing.T) {
	d := NewDatabaseG(16, 1e12, 0.8)
	w := 5e11
	d.Store(w, 0.95)
	d.Quarantine()
	d.Rewarm(8)
	// A re-measured bucket is fresh: no blend, the new value verbatim.
	d.Store(w, 0.85)
	if got := d.Lookup(w); got != 0.85 {
		t.Fatalf("fresh bucket lookup %v, want 0.85 verbatim", got)
	}
}

func TestRewarmUntouchedBucketsStayInitial(t *testing.T) {
	d := NewDatabaseG(16, 1e12, 0.8)
	d.Store(2e11, 0.95)
	d.Quarantine()
	d.Rewarm(4)
	// A bucket never learned holds the initial value; warming must not
	// perturb it.
	if got := d.Lookup(9e11); got != 0.8 {
		t.Fatalf("untouched bucket %v, want initial 0.8", got)
	}
}

func TestSerializationResetsResilienceState(t *testing.T) {
	d := NewDatabaseG(16, 1e12, 0.8)
	d.Store(2e11, 0.95)
	d.Quarantine()
	d.Rewarm(8)
	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	if d.Quarantined() {
		t.Fatal("quarantine survived serialization")
	}
	// Warming is volatile: a reloaded database trusts its learned state.
	if got := d.Lookup(2e11); got != 0.95 {
		t.Fatalf("reloaded lookup %v, want 0.95", got)
	}
}

func TestDatabaseCRestore(t *testing.T) {
	c := NewDatabaseC(3)
	c.Update([]float64{1, 2, 3}, []float64{1, 1, 1})
	saved := c.Splits(nil)
	c.Update([]float64{9, 1, 1}, []float64{1, 1, 1})
	c.Restore(saved)
	got := c.Splits(nil)
	for i := range saved {
		if got[i] != saved[i] {
			t.Fatalf("split %d: %v, want %v", i, got[i], saved[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch accepted")
		}
	}()
	c.Restore([]float64{0.5})
}
