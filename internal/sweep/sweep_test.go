package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tianhe/internal/telemetry"
)

func TestMapOrderIndependentOfPar(t *testing.T) {
	pts := make([]int, 97)
	for i := range pts {
		pts[i] = i
	}
	want := Map(context.Background(), 1, pts, func(i, p int) int { return p * p })
	for _, par := range []int{2, 3, 8, 64, 200} {
		got := Map(context.Background(), par, pts, func(i, p int) int { return p * p })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par=%d: result[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
}

func TestMapRunsEveryPointOnce(t *testing.T) {
	var counts [64]atomic.Int64
	Map(context.Background(), 8, make([]struct{}, len(counts)), func(i int, _ struct{}) int {
		counts[i].Add(1)
		return 0
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("point %d ran %d times", i, n)
		}
	}
}

func TestSeedIsPureAndSpread(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		s := Seed(2009, i)
		if s != Seed(2009, i) {
			t.Fatalf("Seed(2009, %d) not pure", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("Seed collision between points %d and %d", j, i)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("Seed must depend on the base")
	}
}

// instrumentedPoint records a counter, a set-style gauge, a histogram sample
// and a span on a per-point track — the shape real sweep points produce.
func instrumentedPoint(i int, tel *telemetry.Telemetry) {
	tel.Counter("sweep.pts").Inc()
	tel.Counter(fmt.Sprintf("pt%02d.done", i)).Inc()
	tel.Gauge("sweep.last_index").Set(float64(i))
	tel.Gauge("sweep.total").Add(float64(i))
	tel.Histogram("sweep.x", []float64{8, 16, 32, 64}).Observe(float64(i))
	tel.Trace.Span(fmt.Sprintf("track%02d", i), "test", "run", float64(i), float64(i)+0.5)
	tel.Trace.Sample("sweep.series", float64(i), float64(i*i))
}

func telBytes(tel *telemetry.Telemetry) (metrics, trace string) {
	var m, tr bytes.Buffer
	tel.Metrics.WriteText(&m)
	if err := tel.Trace.WriteJSON(&tr); err != nil {
		panic(err)
	}
	return m.String(), tr.String()
}

func TestMapTelByteIdenticalToSerial(t *testing.T) {
	const n = 23
	pts := make([]int, n)
	for i := range pts {
		pts[i] = i
	}
	run := func(par int) (string, string) {
		tel := telemetry.New()
		MapTel(context.Background(), par, tel, pts, func(i, p int, tel *telemetry.Telemetry) int {
			instrumentedPoint(i, tel)
			return i
		})
		return telBytes(tel)
	}
	wantM, wantT := run(1)
	for _, par := range []int{2, 8} {
		gotM, gotT := run(par)
		if gotM != wantM {
			t.Fatalf("par=%d metrics differ from serial:\n--- serial ---\n%s--- par ---\n%s", par, wantM, gotM)
		}
		if gotT != wantT {
			t.Fatalf("par=%d trace differs from serial", par)
		}
	}
}

func TestMapTelGivesEveryPointItsOwnBundle(t *testing.T) {
	for _, par := range []int{1, 4} {
		tel := telemetry.New()
		seen := make([]*telemetry.Telemetry, 2)
		MapTel(context.Background(), par, tel, []int{0, 1}, func(i, p int, child *telemetry.Telemetry) int {
			if child == tel {
				t.Errorf("par=%d point %d: got the parent bundle, want its own", par, i)
			}
			if !child.Enabled() {
				t.Errorf("par=%d point %d: bundle must be enabled when the parent is", par, i)
			}
			seen[i] = child
			return 0
		})
		if seen[0] == seen[1] {
			t.Errorf("par=%d: both points got the same bundle", par)
		}
	}
	for _, par := range []int{1, 4} {
		MapTel(context.Background(), par, telemetry.Disabled(), []int{0, 1}, func(i, p int, child *telemetry.Telemetry) int {
			if child.Enabled() {
				t.Errorf("par=%d point %d: bundle must stay disabled when the parent is", par, i)
			}
			return 0
		})
	}
}

func TestMapPanicReportsLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if !strings.Contains(fmt.Sprint(r), "point 3 panicked") {
			t.Fatalf("expected the lowest-index panic, got: %v", r)
		}
	}()
	Map(context.Background(), 4, make([]struct{}, 32), func(i int, _ struct{}) int {
		if i >= 3 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return 0
	})
}

func TestMapCanceledContextSkipsPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	Map(ctx, 1, []int{1, 2, 3}, func(i, p int) int { ran++; return p })
	if ran != 0 {
		t.Fatalf("canceled context still ran %d points", ran)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, par := range []int{1, 2, 7, 16, 100} {
		for _, n := range []int{0, 1, 5, 64, 101} {
			var hits [101]atomic.Int64
			shards := Shards(par, n)
			seen := make([]atomic.Bool, shards+1)
			For(par, n, func(shard, lo, hi int) {
				if shard >= shards {
					t.Errorf("par=%d n=%d: shard %d >= Shards()=%d", par, n, shard, shards)
				}
				if seen[shard].Swap(true) {
					t.Errorf("par=%d n=%d: shard %d ran twice", par, n, shard)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if hits[i].Load() != 1 {
					t.Fatalf("par=%d n=%d: index %d covered %d times", par, n, i, hits[i].Load())
				}
			}
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must return at least 1")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers must pass positive values through")
	}
}
