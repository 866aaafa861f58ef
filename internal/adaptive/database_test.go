package adaptive

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"tianhe/internal/sim"
)

// TestDatabaseGBoundariesMonotoneAndTotal checks the workload-bucketing
// contract end to end: the Snapshot ranges tile (0, maxWork] contiguously
// with no gaps or overlaps, and the bucket-index mapping behind
// Lookup/Store is total (every float64 workload, including 0, negatives,
// NaN, and ±Inf, lands in exactly one bucket) and monotone non-decreasing
// in the workload.
func TestDatabaseGBoundariesMonotoneAndTotal(t *testing.T) {
	const j = 64
	const maxWork = 1e12
	d := NewDatabaseG(j, maxWork, 0.5)

	snap := d.Snapshot()
	if len(snap) != j {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), j)
	}
	if snap[0].WorkLo != 0 {
		t.Fatalf("first bucket starts at %g, want 0", snap[0].WorkLo)
	}
	if got := snap[j-1].WorkHi; math.Abs(got-maxWork) > 1e-3 {
		t.Fatalf("last bucket ends at %g, want %g", got, maxWork)
	}
	for i, e := range snap {
		if e.WorkHi <= e.WorkLo {
			t.Fatalf("bucket %d range (%g, %g] is empty or inverted", i, e.WorkLo, e.WorkHi)
		}
		if i > 0 && snap[i].WorkLo != snap[i-1].WorkHi {
			t.Fatalf("bucket %d starts at %g but bucket %d ends at %g: ranges must tile",
				i, snap[i].WorkLo, i-1, snap[i-1].WorkHi)
		}
	}

	// Make every bucket identifiable, then probe the mapping through the
	// public API: Store a distinct split per bucket midpoint.
	for i, e := range snap {
		d.Store((e.WorkLo+e.WorkHi)/2, float64(i))
	}

	bucketOf := func(work float64) int {
		return int(d.Lookup(work))
	}

	// Totality: extreme and degenerate workloads all resolve to a bucket.
	for _, tc := range []struct {
		work float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 0},
		{maxWork * 2, j - 1},
		{math.Inf(1), j - 1},
		{math.MaxFloat64, j - 1},
	} {
		if got := bucketOf(tc.work); got != tc.want {
			t.Errorf("Lookup(%g) hit bucket %d, want %d", tc.work, got, tc.want)
		}
	}

	// Monotonicity: over a dense sweep the bucket index never decreases,
	// and every bucket is reachable.
	r := sim.NewStream(7, "database-boundaries")
	samples := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		samples = append(samples, r.Range(0, maxWork*1.25))
	}
	// Deterministic insertion sort keeps the test stdlib-light and exact.
	for i := 1; i < len(samples); i++ {
		for k := i; k > 0 && samples[k] < samples[k-1]; k-- {
			samples[k], samples[k-1] = samples[k-1], samples[k]
		}
	}
	prev := 0
	seen := make(map[int]bool)
	for _, w := range samples {
		b := bucketOf(w)
		if b < prev {
			t.Fatalf("bucket index decreased: Lookup(%g) = %d after %d", w, b, prev)
		}
		if b < 0 || b >= j {
			t.Fatalf("Lookup(%g) out of range: %d", w, b)
		}
		prev = b
		seen[b] = true
	}
	for i := 0; i < j; i++ {
		if !seen[i] {
			t.Errorf("bucket %d unreachable in a dense sweep", i)
		}
	}
}

// TestDatabaseGConcurrentStress hammers one DatabaseG from many
// goroutines — concurrent Store/Lookup on colliding buckets plus Snapshot
// and MarshalJSON readers — so `go test -race` (the make check
// configuration) exercises the locking. Invariants: lookups only ever
// observe values some writer stored (or the initial split), and the final
// snapshot is consistent.
func TestDatabaseGConcurrentStress(t *testing.T) {
	const (
		j       = 16
		maxWork = 1e9
		initial = 0.889
		writers = 8
		ops     = 2000
	)
	d := NewDatabaseG(j, maxWork, initial)

	// Writers only ever store whole numbers in [0, writers*ops), so any
	// lookup must observe either the initial split or one of those.
	valid := func(v float64) bool {
		return v == initial || (v >= 0 && v < writers*ops && v == math.Trunc(v))
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := sim.NewStream(uint64(g), "database-stress")
			for i := 0; i < ops; i++ {
				work := r.Range(0, maxWork*1.1)
				switch i % 4 {
				case 0, 1:
					d.Store(work, float64(g*ops+i))
				case 2:
					if v := d.Lookup(work); !valid(v) {
						t.Errorf("Lookup returned impossible split %v", v)
						return
					}
				case 3:
					if i%64 == 3 {
						if _, err := json.Marshal(d); err != nil {
							t.Errorf("concurrent MarshalJSON: %v", err)
							return
						}
					} else {
						_ = d.Snapshot()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	snap := d.Snapshot()
	if len(snap) != j {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), j)
	}
	for i, e := range snap {
		if !valid(e.Split) {
			t.Errorf("bucket %d: split %v was never stored by any writer", i, e.Split)
		}
		if !e.Touched && e.Split != initial {
			t.Errorf("bucket %d: untouched but split %v != initial %v", i, e.Split, initial)
		}
	}
}

// TestDatabaseCConcurrentStress drives concurrent Update/Splits traffic
// through one DatabaseC under the race detector and checks the fractions
// always sum to 1 and stay non-negative.
func TestDatabaseCConcurrentStress(t *testing.T) {
	const cores = 4
	d := NewDatabaseC(cores)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := sim.NewStream(uint64(g), "database-c-stress")
			works := make([]float64, cores)
			times := make([]float64, cores)
			for i := 0; i < 1500; i++ {
				if g%2 == 0 {
					for c := range works {
						works[c] = r.Range(1, 1e9)
						times[c] = r.Range(1e-3, 10)
					}
					d.Update(works, times)
					continue
				}
				splits := d.Splits(nil)
				var sum float64
				for _, s := range splits {
					if s < 0 {
						t.Errorf("negative CSplit %v", s)
						return
					}
					sum += s
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("CSplits sum to %v, want 1", sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
