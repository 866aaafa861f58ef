package adaptive

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDatabaseGInitialSplits(t *testing.T) {
	d := NewDatabaseG(8, 1000, 0.889)
	for _, w := range []float64{1, 125, 500, 999, 5000} {
		if d.Lookup(w) != 0.889 {
			t.Fatalf("initial lookup(%v) = %v", w, d.Lookup(w))
		}
	}
}

func TestDatabaseGBucketing(t *testing.T) {
	d := NewDatabaseG(4, 400, 0.5)
	d.Store(150, 0.7) // bucket 1: (100, 200]
	if d.Lookup(101) != 0.7 || d.Lookup(199) != 0.7 {
		t.Fatal("stored value must cover its whole bucket")
	}
	if d.Lookup(99) != 0.5 || d.Lookup(201) != 0.5 {
		t.Fatal("neighboring buckets must be untouched")
	}
}

func TestDatabaseGOverflowUsesLastBucket(t *testing.T) {
	d := NewDatabaseG(4, 400, 0.5)
	d.Store(1e9, 0.9) // beyond maxWork: last bucket
	if d.Lookup(399) != 0.9 || d.Lookup(1e12) != 0.9 {
		t.Fatal("out-of-range workloads must map to the last bucket")
	}
}

func TestDatabaseGSnapshot(t *testing.T) {
	d := NewDatabaseG(4, 400, 0.5)
	d.Store(150, 0.7)
	s := d.Snapshot()
	if len(s) != 4 {
		t.Fatalf("snapshot length %d", len(s))
	}
	if s[1].Split != 0.7 || !s[1].Touched {
		t.Fatalf("bucket 1 = %+v", s[1])
	}
	if s[0].Touched || s[2].Touched {
		t.Fatal("untouched buckets must be marked as such")
	}
	if s[0].WorkLo != 0 || s[0].WorkHi != 100 || s[3].WorkHi != 400 {
		t.Fatalf("bucket bounds wrong: %+v", s)
	}
}

func TestDatabaseGJSONRoundTrip(t *testing.T) {
	d := NewDatabaseG(6, 600, 0.889)
	d.Store(50, 0.6)
	d.Store(550, 0.93)
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back DatabaseG
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Lookup(50) != 0.6 || back.Lookup(550) != 0.93 || back.Lookup(300) != 0.889 {
		t.Fatal("round trip lost data")
	}
	if back.Buckets() != 6 || back.MaxWork() != 600 {
		t.Fatal("round trip lost shape")
	}
}

func TestDatabaseGInvalidJSON(t *testing.T) {
	for _, blob := range []string{
		`{"max_work":0,"buckets":[],"touched":[]}`,
		`{"max_work":10,"initial":0.5,"buckets":[0.5,0.5],"touched":[true]}`,
		`{"max_work":-3,"initial":0.5,"buckets":[0.5],"touched":[true]}`,
		`{"max_work":10,"initial":1.01,"buckets":[0.5],"touched":[true]}`,
		`{"max_work":10,"initial":-0.1,"buckets":[0.5],"touched":[true]}`,
		`{"max_work":10,"initial":0.5,"buckets":[0.5,7],"touched":[true,true]}`,
		`{"max_work":10,"initial":0.5,"buckets":[-1e-9],"touched":[false]}`,
	} {
		var d DatabaseG
		if err := json.Unmarshal([]byte(blob), &d); err == nil {
			t.Errorf("invalid serialization accepted: %s", blob)
		}
	}
	// One past the bucket bound.
	big := databaseGJSON{MaxWork: 1, Initial: 0.5,
		Buckets: make([]float64, MaxBuckets+1), Touched: make([]bool, MaxBuckets+1)}
	blob, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	var d DatabaseG
	if err := json.Unmarshal(blob, &d); err == nil {
		t.Errorf("database with %d buckets accepted", MaxBuckets+1)
	}
}

func TestDatabaseGValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDatabaseG(0, 100, 0.5) },
		func() { NewDatabaseG(4, 0, 0.5) },
		func() { NewDatabaseC(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid construction should panic")
				}
			}()
			f()
		}()
	}
}

func TestDatabaseCInitialEqual(t *testing.T) {
	d := NewDatabaseC(3)
	for _, s := range d.Splits(nil) {
		if math.Abs(s-1.0/3.0) > 1e-15 {
			t.Fatalf("initial split %v", s)
		}
	}
}

func TestDatabaseCUpdateFollowsRates(t *testing.T) {
	d := NewDatabaseC(3)
	// Equal work, but core 0 took twice as long: its rate is half.
	d.Update([]float64{100, 100, 100}, []float64{2, 1, 1})
	s := d.Splits(nil)
	if math.Abs(s[0]-0.2) > 1e-12 || math.Abs(s[1]-0.4) > 1e-12 || math.Abs(s[2]-0.4) > 1e-12 {
		t.Fatalf("splits after update: %v", s)
	}
}

func TestDatabaseCSplitsSumToOne(t *testing.T) {
	d := NewDatabaseC(4)
	f := func(w0, w1, w2, w3, t0, t1, t2, t3 uint8) bool {
		works := []float64{float64(w0), float64(w1), float64(w2), float64(w3)}
		times := []float64{float64(t0) + 1, float64(t1) + 1, float64(t2) + 1, float64(t3) + 1}
		d.Update(works, times)
		var sum float64
		for _, s := range d.Splits(nil) {
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDatabaseCUnmeasuredCoreKeepsShare(t *testing.T) {
	d := NewDatabaseC(2)
	d.Update([]float64{100, 100}, []float64{1, 2}) // splits -> 2/3, 1/3
	before := d.Splits(nil)
	// Next execution core 1 got no work: its implied rate must be carried.
	d.Update([]float64{100, 0}, []float64{1, 0})
	after := d.Splits(nil)
	if math.Abs(after[1]-before[1]) > 1e-9 {
		t.Fatalf("unmeasured core share drifted: %v -> %v", before, after)
	}
}

func TestDatabaseCAllUnmeasuredNoChange(t *testing.T) {
	d := NewDatabaseC(2)
	d.Update([]float64{10, 10}, []float64{1, 3})
	before := d.Splits(nil)
	d.Update([]float64{0, 0}, []float64{0, 0})
	after := d.Splits(nil)
	if before[0] != after[0] || before[1] != after[1] {
		t.Fatal("an empty observation must not change the database")
	}
}

// TestDatabaseCUpdateKeepsNoHistory: Update reuses its rate scratch, yet its
// result depends only on the current splits and its arguments — a database
// with a history of updates and a fresh one restored to the same splits
// agree bit for bit on the next update, here one where a core goes idle.
func TestDatabaseCUpdateKeepsNoHistory(t *testing.T) {
	d := NewDatabaseC(3)
	d.Update([]float64{100, 100, 100}, []float64{1, 0.25, 2})
	fresh := NewDatabaseC(3)
	fresh.Restore(d.Splits(nil))
	works, times := []float64{200, 0, 50}, []float64{1, 0, 1}
	d.Update(works, times)
	fresh.Update(works, times)
	if got, want := d.Splits(nil), fresh.Splits(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("splits after update %v, want %v", got, want)
	}
}

func TestAdaptiveConvergesToTrueRatio(t *testing.T) {
	// Simulated element: GPU runs at 190 Gflop/s, CPU at 30 Gflop/s; the
	// optimal split is 190/220 = 0.8636. Starting from the peak ratio 0.889,
	// one observation already lands on the fixed point because the rates are
	// load-independent here.
	a := NewAdaptive(10, 1e12, 0.889, 3)
	work := 5e11
	for i := 0; i < 5; i++ {
		g := a.GSplit(work)
		tg := work * g / 190e9
		tc := work * (1 - g) / 30e9
		a.Observe(Observation{Work: work, GSplit: g, TG: tg, TC: tc})
	}
	want := 190.0 / 220.0
	if got := a.GSplit(work); math.Abs(got-want) > 1e-9 {
		t.Fatalf("converged split %v, want %v", got, want)
	}
}

func TestAdaptiveConvergenceIsPerBucket(t *testing.T) {
	// Small workloads see a slower GPU (efficiency curve): their bucket must
	// learn a lower split while big buckets stay near peak ratio.
	a := NewAdaptive(10, 1000, 0.889, 3)
	gpuRate := func(work float64) float64 { return 200 * work / (work + 500) }
	for _, work := range []float64{50, 950} {
		for i := 0; i < 20; i++ {
			g := a.GSplit(work)
			tg := work * g / gpuRate(work)
			tc := work * (1 - g) / 30
			a.Observe(Observation{Work: work, GSplit: g, TG: tg, TC: tc})
		}
	}
	small := a.GSplit(50)
	big := a.GSplit(950)
	if small >= big {
		t.Fatalf("small-workload split %v should be below big-workload split %v", small, big)
	}
	wantSmall := gpuRate(50) / (gpuRate(50) + 30)
	if math.Abs(small-wantSmall) > 1e-6 {
		t.Fatalf("small bucket %v, want %v", small, wantSmall)
	}
}

func TestAdaptiveIgnoresDegenerateObservations(t *testing.T) {
	a := NewAdaptive(4, 100, 0.8, 2)
	a.Observe(Observation{Work: 50, GSplit: 0.8, TG: 0, TC: 1})
	if a.GSplit(50) != 0.8 {
		t.Fatal("zero TG must not update the database")
	}
	a.Observe(Observation{Work: 0, GSplit: 0.8, TG: 1, TC: 1})
	if a.GSplit(50) != 0.8 {
		t.Fatal("zero work must not update the database")
	}
}

func TestAdaptiveClampsSplits(t *testing.T) {
	a := NewAdaptive(4, 100, 0.8, 2)
	// GPU immensely faster: unclamped update would be ~1.0.
	a.Observe(Observation{Work: 50, GSplit: 0.8, TG: 1e-12, TC: 1e6})
	if s := a.GSplit(50); s > maxGSplit {
		t.Fatalf("split %v exceeds clamp", s)
	}
	a.Observe(Observation{Work: 50, GSplit: 0.8, TG: 1e6, TC: 1e-12})
	if s := a.GSplit(50); s < minGSplit {
		t.Fatalf("split %v below clamp", s)
	}
}

func TestAdaptiveLevel2Update(t *testing.T) {
	a := NewAdaptive(4, 100, 0.8, 3)
	a.Observe(Observation{
		Work: 50, GSplit: 0.8, TG: 1, TC: 1,
		CoreWorks: []float64{10, 10, 10},
		CoreTimes: []float64{2, 1, 1},
	})
	s := a.CSplits(nil)
	if !(s[0] < s[1] && math.Abs(s[1]-s[2]) < 1e-12) {
		t.Fatalf("level-2 splits %v", s)
	}
}

func TestStaticNeverChanges(t *testing.T) {
	s := NewStatic(0.889, 3)
	s.Observe(Observation{Work: 100, GSplit: 0.889, TG: 10, TC: 0.1,
		CoreWorks: []float64{1, 1, 1}, CoreTimes: []float64{9, 1, 1}})
	if s.GSplit(100) != 0.889 {
		t.Fatal("static split must not move")
	}
	cs := s.CSplits(nil)
	if cs[0] != cs[1] || cs[1] != cs[2] {
		t.Fatal("static core splits must stay equal")
	}
}

func TestTrainedFreezes(t *testing.T) {
	tr := NewTrained(4, 100, 0.8, 2)
	obs := Observation{Work: 50, GSplit: 0.8, TG: 1, TC: 4}
	tr.Observe(obs) // training: updates
	trained := tr.GSplit(50)
	if trained == 0.8 {
		t.Fatal("training observation must update the split")
	}
	tr.Freeze()
	if tr.Training() {
		t.Fatal("Freeze must end training")
	}
	tr.Observe(Observation{Work: 50, GSplit: trained, TG: 4, TC: 1})
	if tr.GSplit(50) != trained {
		t.Fatal("frozen policy must ignore feedback")
	}
}

func TestPolicyNames(t *testing.T) {
	if NewAdaptive(1, 1, 0.5, 1).Name() != "adaptive" ||
		NewStatic(0.5, 1).Name() != "static" ||
		NewTrained(1, 1, 0.5, 1).Name() != "qilin-trained" {
		t.Fatal("policy names changed; experiment output depends on them")
	}
}

func TestClampSplitNaN(t *testing.T) {
	if clampSplit(math.NaN()) != minGSplit {
		t.Fatal("NaN must clamp to the minimum split")
	}
}

func TestOverheadIsSmall(t *testing.T) {
	// The paper claims negligible overhead: a lookup+update pair should be
	// well under a microsecond even in this unoptimized reproduction.
	a := NewAdaptive(64, 1e12, 0.889, 3)
	obs := Observation{Work: 1e9, GSplit: 0.889, TG: 1, TC: 1,
		CoreWorks: []float64{1, 1, 1}, CoreTimes: []float64{1, 1, 1}}
	const iters = 100000
	start := nowNanos()
	for i := 0; i < iters; i++ {
		_ = a.GSplit(obs.Work)
		a.Observe(obs)
	}
	perOp := float64(nowNanos()-start) / iters
	if perOp > 10000 { // 10 us: generous bound for CI machines
		t.Fatalf("adaptive overhead %v ns per call", perOp)
	}
}

func TestAdaptiveSurvivesAdversarialObservations(t *testing.T) {
	// Garbage measurements (Inf, NaN, negatives) must never corrupt the
	// database into an unusable split.
	a := NewAdaptive(8, 1000, 0.889, 3)
	hostile := []Observation{
		{Work: 100, GSplit: 0.9, TG: math.Inf(1), TC: 1},
		{Work: 100, GSplit: 0.9, TG: 1, TC: math.Inf(1)},
		{Work: 100, GSplit: math.NaN(), TG: 1, TC: 1},
		{Work: math.Inf(1), GSplit: 0.9, TG: 1, TC: 1},
		{Work: -5, GSplit: 0.9, TG: 1, TC: 1},
		{Work: 100, GSplit: 0.9, TG: -1, TC: 1},
		{Work: 100, GSplit: 0.9, TG: 1, TC: 1,
			CoreWorks: []float64{math.NaN(), 1, 1}, CoreTimes: []float64{1, 1, 1}},
	}
	for _, obs := range hostile {
		a.Observe(obs)
	}
	for _, w := range []float64{1, 500, 999} {
		s := a.GSplit(w)
		if math.IsNaN(s) || s < minGSplit || s > maxGSplit {
			t.Fatalf("split corrupted to %v after hostile observations", s)
		}
	}
	var sum float64
	for _, s := range a.CSplits(nil) {
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("core split corrupted: %v", a.CSplits(nil))
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("core splits no longer sum to 1: %v", a.CSplits(nil))
	}
}
