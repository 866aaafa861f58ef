package taskgraph

import (
	"encoding/json"
	"math"
	"testing"

	"tianhe/internal/sim/simtest"
)

func TestRateDBColdAnswersModel(t *testing.T) {
	db := NewRateDB()
	if got := db.EstimateClass("gemm", ClassGPU, 1e9, 0.5); got != 0.5 {
		t.Errorf("cold estimate = %v, want the model 0.5", got)
	}
}

func TestRateDBWarmsTowardMeasurement(t *testing.T) {
	db := NewRateDB()
	// Measured rate 2 GFLOP/s; model claims 1e9 flops take 0.1s (10 GFLOP/s).
	prev := db.EstimateClass("gemm", ClassCPU, 1e9, 0.1)
	for i := 0; i < 20; i++ {
		db.ObserveClass("gemm", ClassCPU, 1e9, 0.5)
		est := db.EstimateClass("gemm", ClassCPU, 1e9, 0.1)
		if est < prev-1e-12 {
			t.Fatalf("estimate moved away from the measurement: %v after %v", est, prev)
		}
		prev = est
	}
	if math.Abs(prev-0.5) > 0.07 {
		t.Errorf("warm estimate = %v, want near the measured 0.5", prev)
	}
}

func TestRateDBQuarantineDiscardsGPUObservations(t *testing.T) {
	db := NewRateDB()
	db.ObserveClass("gemm", ClassGPU, 1e9, 0.5)
	warm := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1)
	db.Quarantine()
	if !db.Quarantined() {
		t.Fatal("Quarantined() = false after Quarantine")
	}
	db.ObserveClass("gemm", ClassGPU, 1e9, 5.0) // outage measurement: must be dropped
	db.Rewarm(0)                                // full trust back immediately
	if got := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1); got != warm {
		t.Errorf("estimate after quarantined store = %v, want unchanged %v", got, warm)
	}
	// CPU observations are never quarantined.
	db2 := NewRateDB()
	db2.Quarantine()
	db2.ObserveClass("gemm", ClassCPU, 1e9, 1.0)
	if got := db2.EstimateClass("gemm", ClassCPU, 1e9, 0.1); got == 0.1 {
		t.Error("CPU observation was discarded during GPU quarantine")
	}
}

func TestRateDBRewarmRestoresTrustGradually(t *testing.T) {
	db := NewRateDB()
	for i := 0; i < 50; i++ {
		db.ObserveClass("gemm", ClassGPU, 1e9, 0.5) // measured 2 GFLOP/s, model says 10
	}
	warm := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1)
	db.Quarantine()
	db.Rewarm(4)
	cold := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1)
	if math.Abs(cold-0.1) > 1e-9 {
		t.Errorf("estimate right after rewarm = %v, want the model 0.1", cold)
	}
	prev := cold
	for i := 0; i < 40; i++ {
		db.ObserveClass("gemm", ClassGPU, 1e9, 0.5)
		est := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1)
		if est < prev-1e-12 {
			t.Fatalf("trust regressed: estimate %v after %v", est, prev)
		}
		prev = est
	}
	if math.Abs(prev-warm) > 0.05 {
		t.Errorf("estimate after re-warm = %v, want back near %v", prev, warm)
	}
}

// learnedCells counts the (class, codelet) cells holding a rate.
func learnedCells(db *RateDB) int {
	n := 0
	for _, m := range db.cells {
		n += len(m)
	}
	return n
}

func TestRateDBJSONRoundTrip(t *testing.T) {
	db := NewRateDB()
	db.ObserveClass("gemm", ClassGPU, 1e9, 0.5)
	db.ObserveClass("panel", ClassCPU, 1e8, 0.2)
	b, err := json.Marshal(db)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RateDB
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b) != string(b2) {
		t.Errorf("round trip drifted:\n%s\n%s", b, b2)
	}
	if got, want := back.EstimateClass("gemm", ClassGPU, 1e9, 9), db.EstimateClass("gemm", ClassGPU, 1e9, 9); got != want {
		t.Errorf("restored estimate = %v, want %v", got, want)
	}
	if back.cells[ClassGPU]["gemm"] == nil || back.cells[ClassCPU]["panel"] == nil || learnedCells(&back) != 2 {
		t.Errorf("restored cells = %v, want gemm on the GPU and panel on the CPU only", back.cells)
	}
}

func TestRateDBDiscardsBadMeasurements(t *testing.T) {
	db := NewRateDB()
	db.ObserveClass("gemm", ClassCPU, 0, 1)
	db.ObserveClass("gemm", ClassCPU, 1e9, 0)
	db.ObserveClass("gemm", ClassCPU, math.NaN(), 1)
	db.ObserveClass("gemm", ClassCPU, 1e9, math.Inf(1))
	if got := db.EstimateClass("gemm", ClassCPU, 1e9, 0.25); got != 0.25 {
		t.Errorf("estimate after garbage observations = %v, want the model 0.25", got)
	}
}

// TestRateDBCellsAfterRestore: a cell the database resolved before a restore
// or a seed never answers after it. Restoring into a warmed database (as
// linpacksim does into its live Scheduler) answers the next estimate from
// the restored cells, a codelet the restore lacks from the model, and a seed
// into an empty cell from the seed.
func TestRateDBCellsAfterRestore(t *testing.T) {
	saved := NewRateDB()
	saved.ObserveClass("gemm", ClassGPU, 1e9, 0.25) // 4 GFLOP/s
	blob, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	want := saved.EstimateClass("gemm", ClassGPU, 1e9, 0.1)

	db := NewRateDB()
	for i := 0; i < 5; i++ {
		db.ObserveClass("gemm", ClassGPU, 1e9, 2) // 0.5 GFLOP/s
		db.ObserveClass("panel", ClassCPU, 1e8, 1)
	}
	if db.EstimateClass("gemm", ClassGPU, 1e9, 0.1) == want {
		t.Fatal("the warmed database already answers like the saved one")
	}
	db.EstimateClass("panel", ClassCPU, 1e8, 0.5) // resolve each class's cell last
	db.EstimateClass("gemm", ClassGPU, 1e9, 0.1)
	if err := json.Unmarshal(blob, db); err != nil {
		t.Fatal(err)
	}
	if got := db.EstimateClass("gemm", ClassGPU, 1e9, 0.1); got != want {
		t.Errorf("restored gemm estimate = %v, want the saved database's %v", got, want)
	}
	if got := db.EstimateClass("panel", ClassCPU, 1e8, 0.5); got != 0.5 {
		t.Errorf("panel estimate after a restore without it = %v, want the model 0.5", got)
	}

	// The panel lookup above found no cell; a seed now fills one, and the
	// next estimate blends it at the weight of one observation.
	db.Seed("panel", ClassCPU, 1e9)
	if got, want := db.EstimateClass("panel", ClassCPU, 1e8, 0.5), 0.75*0.5+0.25*0.1; got != want {
		t.Errorf("panel estimate after its seed = %v, want %v", got, want)
	}
}

// TestRateDBWarmAllocs: once its cells exist, estimating and observing
// allocate nothing, whichever codelet was resolved before.
func TestRateDBWarmAllocs(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	db := NewRateDB()
	for _, c := range []string{"gemm", "panel"} {
		for cls := ClassCPU; cls < numClasses; cls++ {
			db.ObserveClass(c, cls, 1e9, 1)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range []string{"gemm", "panel"} {
			for cls := ClassCPU; cls < numClasses; cls++ {
				db.EstimateClass(c, cls, 1e9, 0.5)
				db.ObserveClass(c, cls, 1e9, 1)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm estimates and observations allocate %.0f times, want 0", allocs)
	}
}
