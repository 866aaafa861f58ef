package adaptive

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzDatabaseGJSON feeds arbitrary bytes to the database_g decoder — the
// one place the adaptive state takes input from outside the program
// (figures -db <file>). A blob is either rejected with an error or
// yields a database that round-trips through its own encoding and whose
// every Lookup, across the whole workload axis and through a quarantine /
// re-warm cycle, is a split in [0, 1].
func FuzzDatabaseGJSON(f *testing.F) {
	good := NewDatabaseG(6, 600, 0.889)
	good.Store(50, 0.6)
	good.Store(550, 0.93)
	blob, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"max_work":1e12,"initial":0.5,"buckets":[0,1],"touched":[true,false]}`))
	f.Add([]byte(`{"max_work":0,"buckets":[],"touched":[]}`))
	f.Add([]byte(`{"max_work":10,"initial":1.5,"buckets":[0.5],"touched":[true]}`))
	f.Add([]byte(`{"max_work":10,"initial":0.5,"buckets":[-0.1],"touched":[true]}`))
	f.Add([]byte(`{"max_work":-1,"initial":0.5,"buckets":[0.5],"touched":[true]}`))
	f.Add([]byte(`{"max_work":10,"initial":0.5,"buckets":[0.5,0.5],"touched":[true]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var d DatabaseG
		if err := json.Unmarshal(blob, &d); err != nil {
			return
		}
		if d.Buckets() < 1 || d.Buckets() > MaxBuckets || !(d.MaxWork() > 0) {
			t.Fatalf("accepted shape: %d buckets over %v", d.Buckets(), d.MaxWork())
		}
		again, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		var back DatabaseG
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		// Probe every bucket plus the degenerate workloads.
		works := []float64{0, -1, math.NaN(), math.Inf(1), 2 * d.MaxWork()}
		for _, e := range d.Snapshot() {
			works = append(works, (e.WorkLo+e.WorkHi)/2)
		}
		check := func(stage string) {
			for _, w := range works {
				got := d.Lookup(w)
				if !(got >= 0 && got <= 1) {
					t.Fatalf("%s: Lookup(%v) = %v outside [0, 1]", stage, w, got)
				}
				if stage == "restored" && got != back.Lookup(w) {
					t.Fatalf("round trip moved Lookup(%v): %v vs %v", w, got, back.Lookup(w))
				}
			}
		}
		check("restored")
		d.Quarantine()
		d.Rewarm(RewarmHalfLife)
		check("re-warming")
		d.Store(d.MaxWork()/2, d.Initial())
		check("after one store")
	})
}
