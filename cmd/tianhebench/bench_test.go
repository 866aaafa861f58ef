package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric and workload tables")

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, med, q3 := quartiles(ten)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
	if got := median([]float64{3, 1}); got != 2 {
		t.Errorf("median(3,1) = %v, want 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median(7) = %v, want 7", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	pct, v := tail(xs)
	if pct != 75 || v != 30 {
		t.Errorf("tail of 1..40 = p%v %v, want p75 30 (ten samples, 31..40, beyond)", pct, v)
	}
	if pct, v := tail(xs[:10]); pct != 50 || v != median(xs[:10]) {
		t.Errorf("tail of ten samples = p%v %v, want the median as p50", pct, v)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 10, Parent: -1, Pass: 0},
		{Name: "a", Start: 1, End: 5, Parent: 0, Pass: 0},     // nested: has its own child
		{Name: "a.kid", Start: 2, End: 4, Parent: 1, Pass: 0}, // grandchild must not count against pass
		{Name: "b", Start: 4, End: 7, Parent: 0, Pass: 0},     // overlaps a on [4,5]
		{Name: "c", Start: 6, End: 6.5, Parent: 0, Pass: 0},   // inside b
		{Name: "d", Start: 9, End: 12, Parent: 0, Pass: 0},    // runs past its parent
		{Name: "outside", Start: 20, End: 21, Parent: -1, Pass: -1},
	}
	self := selfTimes(spans)
	want := []float64{10 - (4 + 2 + 0 + 1), 4 - 2, 2, 3, 0.5, 3, 1}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderSelfTimesSumToPass(t *testing.T) {
	rec := newRecorder()
	for p := 0; p < 3; p++ {
		endPass := rec.beginPass(p)
		outer := rec.begin("outer")
		rec.begin("inner")()
		outer()
		rec.begin("sibling")()
		rec.count("calls", 2)
		endPass()
	}
	if e := selfSumError(rec.spans); e > 1e-9 {
		t.Errorf("self times miss the pass spans by %v", e)
	}
	if rec.counts["calls"] != 6 {
		t.Errorf("count = %d, want 6", rec.counts["calls"])
	}
	if inner := rec.spans[2]; inner.Name != "inner" || inner.Parent != 1 || inner.Pass != 0 {
		t.Errorf("inner span = %+v, want parent 1, pass 0", inner)
	}
	var nilRec *recorder
	nilRec.beginPass(0)()
	nilRec.begin("x")()
	nilRec.count("x", 1) // the untraced run: every method is a no-op
}

// The grammars BENCHMARK.json holds names and units to.
var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]metric{endToEnd, scopedEndToEnd, perLayer} {
		for _, m := range table {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the grammar", m.Name)
			}
			if !unitGrammar.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the grammar", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("%s: direction %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s is declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if n := len(layerMetricNames()); n > 128 {
		t.Errorf("%d per-layer metrics, the benchmark contract allows 128", n)
	}
	for name := range exactMetrics {
		if _, ok := findMetric(name); !ok {
			t.Errorf("exactMetrics names %s, which no table declares", name)
		}
	}
	for _, name := range []string{"pipeline.execute_virtual_us", "hybrid.gemm_virtual_us", "op_wall_ms_p50"} {
		if isVirtual(name) {
			t.Errorf("%s is a host time, not simulated time", name)
		}
	}
	for _, name := range []string{"virt_makespan_s", "serve.virt_p99_ms_lost_gpu", "cluster.elastic_virt_overhead_pct", "linpacksim.vgflops_both", "cluster.scale_vtflops_80cab"} {
		if !isVirtual(name) {
			t.Errorf("%s is on the simulated clock", name)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is outside the grammar", w.name)
		}
		if w.passes < 30 {
			t.Errorf("%s: %d passes, every workload records at least 30", w.name, w.passes)
		}
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
		for _, layer := range w.layers {
			if findProbeGroup(layer) == nil {
				t.Errorf("%s: no probe group %q", w.name, layer)
			}
		}
	}
	for _, g := range probeGroups {
		used := false
		for _, w := range workloads {
			for _, layer := range w.layers {
				used = used || layer == g.layer
			}
		}
		if !used {
			t.Errorf("probe group %s runs under no workload", g.layer)
		}
	}
	for _, sm := range spanMetrics {
		if _, ok := findMetric(sm.metric); !ok {
			t.Errorf("span metric %s is not declared", sm.metric)
		}
	}
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// runSeconds is how long the acceptance driver lets one run measure.
const runSeconds = 15

func wantBenchmarkDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./cmd/tianhebench"},
		Paths:      []string{"cmd/tianhebench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range layerMetricNames() {
		doc.PerLayer = append(doc.PerLayer, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return doc
}

// TestBenchmarkJSONMatchesRunner holds BENCHMARK.json and the runner's
// tables to each other: every workload and metric of one is in the other,
// with the same unit, direction and bound. Regenerate with -update.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	const path = "../../BENCHMARK.json"
	want, err := json.MarshalIndent(wantBenchmarkDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, append(want, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantAny any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := json.Unmarshal(want, &wantAny); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantAny) {
		t.Errorf("%s does not match the runner's tables; run go test ./cmd/tianhebench -run BenchmarkJSON -update", path)
	}
}

// TestVirtualValuesRepeat sets two simulator workloads up twice and runs one
// pass of each: everything they yield derives from the seed alone, so the
// two runs must agree bit for bit, and today's pinned values must reappear.
func TestVirtualValuesRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine simulator passes; ten seconds under the race detector")
	}
	e := env{seed: defaultSeed, par: 2}
	pinned := []struct {
		name, metric string
		want         float64
	}{
		{"sim-element", "virt_makespan_s", 321.437},
		{"serve-ladder", "virt_max_rate_slo", 5000},
	}
	for _, pin := range pinned {
		name := pin.name
		w := findWorkload(name)
		var runs [2]values
		for i := range runs {
			pass, err := w.setup(e)
			if err != nil {
				t.Fatalf("%s: set-up: %v", name, err)
			}
			if runs[i], err = pass(nil); err != nil {
				t.Fatalf("%s: pass: %v", name, err)
			}
		}
		if err := sameValues(runs[0], runs[1]); err != nil {
			t.Errorf("%s: second run: %v", name, err)
		}
		if got := runs[0][pin.metric]; math.Abs(got-pin.want) > 5e-4 {
			t.Errorf("%s: %s = %v, pinned at %v", name, pin.metric, got, pin.want)
		}
		for k := range runs[0] {
			if _, ok := findMetric(k); !ok {
				t.Errorf("%s yields %q, which no table declares", name, k)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	wall := metric{"op_wall_ms_p50", "ms", lower, 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		m    metric
		a, b []float64
		want verdict
	}{
		{"same", wall, steady, steady, within},
		{"5% slower is inside the bound", wall, steady, shift(steady, 1.05), within},
		{"20% slower", wall, steady, shift(steady, 1.2), worse},
		{"20% faster", wall, steady, shift(steady, 0.8), better},
		{"noisy parent", wall, []float64{80, 100, 120, 140, 90, 130}, shift(steady, 1.2), unresolved},
		{"noisy parent, every sample beaten", wall, []float64{80, 100, 120, 140, 90, 130}, shift(steady, 0.5), better},
		{"exact virtual value", scopedEndToEnd[4], []float64{5000}, []float64{5000}, within},
		{"slo rung lost", scopedEndToEnd[4], []float64{5000}, []float64{4000}, worse},
		{"slo rung gained", scopedEndToEnd[4], []float64{5000}, []float64{5500}, better},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
