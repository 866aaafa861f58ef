package serve

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

func TestJobValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"dgemm", Request{Tenant: "a", Kind: "dgemm", M: 64, N: 256, K: 256}, true},
		{"solve", Request{Tenant: "a", Kind: "solve", N: 512}, true},
		{"no tenant", Request{Kind: "dgemm", M: 64, N: 256, K: 256}, false},
		{"bad kind", Request{Tenant: "a", Kind: "lu", N: 64}, false},
		{"zero shape", Request{Tenant: "a", Kind: "dgemm", M: 0, N: 256, K: 256}, false},
		{"rows over limit", Request{Tenant: "a", Kind: "dgemm", M: DefaultMaxRows + 1, N: 16, K: 16}, false},
		{"dim over limit", Request{Tenant: "a", Kind: "dgemm", M: 16, N: DefaultMaxDim + 1, K: 16}, false},
		{"solve with m", Request{Tenant: "a", Kind: "solve", M: 8, N: 64}, false},
		{"solve over limit", Request{Tenant: "a", Kind: "solve", N: DefaultMaxRows + 1}, false},
	}
	for _, c := range cases {
		_, err := jobFromRequest(c.req, Limits{}.withDefaults())
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestServerLimits pins which limits a server admits by: the package
// defaults for a zero Config.Limits (resolved once, in New), and an
// explicit smaller cap when one is configured.
func TestServerLimits(t *testing.T) {
	cases := []struct {
		name string
		lim  Limits
		m    int
		err  string // "" admits
	}{
		{"default cap admits a full batch of rows", Limits{}, DefaultMaxRows, ""},
		{"default cap rejects one row more", Limits{}, DefaultMaxRows + 1, "serve: dgemm rows 8193 exceed the 8192-row job limit"},
		{"explicit cap admits at the cap", Limits{MaxRows: 100}, 100, ""},
		{"explicit cap rejects above it", Limits{MaxRows: 100}, 101, "serve: dgemm rows 101 exceed the 100-row job limit"},
	}
	for _, c := range cases {
		s, err := New(Config{Seed: 1, Limits: c.lim})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.SubmitAt(Request{Tenant: "t", Kind: "dgemm", M: c.m, N: 16, K: 16}, 0)
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
	}
}

func TestSolveAdmissionFlops(t *testing.T) {
	// The solve admission model must carry the LU's 2/3·n³ flops to within
	// the rounding of ceil(n/3).
	for _, n := range []int{33, 100, 512, 1000, 8192} {
		job, err := jobFromRequest(Request{Tenant: "t", Kind: "solve", N: n}, Limits{}.withDefaults())
		if err != nil {
			t.Fatalf("solve n=%d: %v", n, err)
		}
		want := 2.0 / 3.0 * float64(n) * float64(n) * float64(n)
		got := 2 * float64(job.M) * float64(job.N) * float64(job.K)
		if rel := (got - want) / want; rel < 0 || rel > 0.07 {
			t.Errorf("solve n=%d admitted work %g, want %g (+0..7%%), rel %g", n, got, want, rel)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	req := Request{Tenant: "acme", Kind: "solve", N: 512}
	data, err := MarshalRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, job, err := ParseRequest(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("request round trip: got %+v want %+v", back, req)
	}
	if job.Kind != Solve || job.M != 512 || job.K != solveK(512) {
		t.Fatalf("expanded job %+v", job)
	}

	res := Result{ID: 7, Tenant: "acme", Kind: Solve, Submit: 1, Start: 1.5, End: 2,
		BatchID: 3, BatchJobs: 4, GSplit: 0.8}
	data, err = MarshalResponse(ResponseFromResult(res))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.LatencySeconds != 1 || resp.BatchJobs != 4 {
		t.Fatalf("response round trip: %+v", resp)
	}

	rej := ResponseFromResult(Result{ID: 8, Tenant: "acme", Kind: DGEMM, Rejected: true, RetryAfter: 0.25})
	data, err = MarshalResponse(rej)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ParseResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "rejected" || resp.RetryAfterSeconds != 0.25 {
		t.Fatalf("rejection round trip: %+v", resp)
	}
}

func TestCodecInvariants(t *testing.T) {
	bad := []string{
		`{"status":"maybe","tenant":"a","kind":"dgemm"}`,
		`{"status":"ok","tenant":"a","kind":"dgemm","retry_after_seconds":1}`,
		`{"status":"rejected","tenant":"a","kind":"dgemm","latency_seconds":0.5}`,
		`{"status":"rejected","tenant":"a","kind":"dgemm","batch":9}`,
	}
	for _, s := range bad {
		if _, err := ParseResponse([]byte(s)); err == nil {
			t.Errorf("ParseResponse(%s) accepted invalid response", s)
		}
	}
}

func TestBatcherAdapts(t *testing.T) {
	ba := newBatcher(64, 8192, 200e-6, 20e-3)
	key := batchKey{kind: DGEMM, n: 256, k: 256}
	// 1000 jobs/s arrivals against a 16 ms batch service time: the target
	// should converge near λ·s = 16 and the window near target/λ/2 = 8 ms.
	for i := 1; i <= 200; i++ {
		ba.observeArrival(ba.policyFor(key), sim.Time(i)*1e-3)
		if i%10 == 0 {
			ba.observeService(key, 16e-3)
		}
	}
	p := ba.policyFor(key)
	if p.target < 10 || p.target > 24 {
		t.Fatalf("target = %d, want near 16", p.target)
	}
	if p.window < 200e-6 || p.window > 20e-3 {
		t.Fatalf("window = %g outside bounds", p.window)
	}
}

func TestBatcherSealsOnCaps(t *testing.T) {
	ba := newBatcher(4, 1000, 1e-3, 1e-2)
	mk := func(m int) Job {
		return Job{Kind: DGEMM, M: m, N: 64, K: 64}
	}
	// add reports the batches one add sealed.
	add := func(job Job, now sim.Time) []*batch {
		var out []*batch
		sealed, _, _ := ba.add(job, now)
		for _, b := range sealed {
			if b != nil {
				out = append(out, b)
			}
		}
		return out
	}
	// Push the occupancy target up so only the caps seal.
	key := batchKey{kind: DGEMM, n: 64, k: 64}
	ba.policyFor(key).target = 100

	var sealed []*batch
	for i := 0; i < 4; i++ {
		sealed = append(sealed, add(mk(10), 0)...)
	}
	if len(sealed) != 1 || len(sealed[0].jobs) != 4 {
		t.Fatalf("occupancy cap: sealed %d batches", len(sealed))
	}
	// Row cap: a job that does not stack seals the open batch.
	if s := add(mk(600), 1e-4); len(s) != 0 {
		t.Fatalf("unexpected seal: %d", len(s))
	}
	s := add(mk(600), 2e-4)
	if len(s) != 1 || s[0].rows != 600 {
		t.Fatalf("row cap: sealed %v", s)
	}
	// A job that fills the row cap on its own seals the open batch it cannot
	// stack into and then its own, in that order.
	if s := add(mk(1000), 3e-4); len(s) != 2 || s[0].rows != 600 || s[1].rows != 1000 {
		t.Fatalf("row cap twice: sealed %v", s)
	}
}

func TestBatcherSealTimer(t *testing.T) {
	ba := newBatcher(64, 8192, 1e-3, 1e-2)
	// Cold start seals at occupancy 1 (target starts at 1, so unlearned
	// traffic pays no batching delay); the window timer only appears once
	// the target has adapted above 1.
	job := Job{Kind: DGEMM, M: 10, N: 64, K: 64}
	if sealed, _, armed := ba.add(job, 0); sealed[0] == nil || sealed[1] != nil || armed {
		t.Fatalf("cold start: sealed=%v armed=%v", sealed, armed)
	}
	ba.policyFor(batchKey{kind: DGEMM, n: 64, k: 64}).target = 8
	sealed, timer, armed := ba.add(job, 1e-4)
	if sealed[0] != nil || !armed {
		t.Fatalf("first add: sealed=%v armed=%v", sealed, armed)
	}
	if b := ba.sealIf(timer.key, timer.seq); b == nil || len(b.jobs) != 1 {
		t.Fatalf("sealIf missed the open batch")
	}
	if b := ba.sealIf(timer.key, timer.seq); b != nil {
		t.Fatalf("stale sealIf re-sealed")
	}
}

// stream submits count DGEMM jobs (m=rows, 256x256 shared shape) from three
// tenants at a fixed interarrival.
func stream(t *testing.T, s *Server, count, rows int, dt sim.Time) {
	t.Helper()
	tenants := []string{"alpha", "beta", "gamma"}
	for i := 0; i < count; i++ {
		req := Request{Tenant: tenants[i%len(tenants)], Kind: "dgemm", M: rows, N: 256, K: 256}
		if _, err := s.SubmitAt(req, sim.Time(i)*dt); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func TestServerCompletesAll(t *testing.T) {
	run := func() (*Server, []Result) {
		s, err := New(Config{Seed: 11, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		stream(t, s, 300, 64, 1e-4)
		s.Run()
		return s, s.Results()
	}
	s, res := run()
	st := s.Stats()
	if st.Offered != 300 || st.Admitted != 300 || st.Rejected != 0 {
		t.Fatalf("admission: %+v", st)
	}
	if st.Completed != st.Admitted {
		t.Fatalf("lost jobs: completed %d of %d admitted", st.Completed, st.Admitted)
	}
	coalesced := false
	for _, r := range res {
		if r.Rejected {
			t.Fatalf("unexpected rejection: %+v", r)
		}
		if r.Start < r.Submit || r.End < r.Start {
			t.Fatalf("time order violated: %+v", r)
		}
		if r.BatchJobs > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("no batch ever coalesced more than one job")
	}
	if st.Batches >= st.Completed {
		t.Fatalf("batching saved nothing: %d batches for %d jobs", st.Batches, st.Completed)
	}
	// Bit-identical replay.
	_, res2 := run()
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("replay diverged")
	}
}

func TestBackpressure(t *testing.T) {
	s, err := New(Config{Seed: 3, Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A hard burst: everything arrives before the first window closes.
	stream(t, s, 100, 64, 1e-6)
	s.Run()
	st := s.Stats()
	if st.Rejected == 0 {
		t.Fatalf("bounded queue never pushed back: %+v", st)
	}
	if st.Admitted+st.Rejected != st.Offered {
		t.Fatalf("admission accounting: %+v", st)
	}
	if st.Completed != st.Admitted {
		t.Fatalf("lost jobs: %+v", st)
	}
	if st.QueuePeak > 8 {
		t.Fatalf("queue grew past cap: peak %d", st.QueuePeak)
	}
	for _, r := range s.Results() {
		if r.Rejected && r.RetryAfter <= 0 {
			t.Fatalf("rejection without retry-after: %+v", r)
		}
	}
}

func TestLostGPUDrainsNotFails(t *testing.T) {
	const jobs = 400
	healthy, err := New(Config{Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream(t, healthy, jobs, 128, 2e-4)
	healthy.Run()
	hs := healthy.Stats()
	if hs.Completed != jobs {
		t.Fatalf("healthy run lost jobs: %+v", hs)
	}

	faulted, err := New(Config{
		Seed: 5, Workers: 2,
		Scenario: "lost-gpu", ScenarioHorizon: hs.LastEnd, StruckWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream(t, faulted, jobs, 128, 2e-4)
	faulted.Run()
	fs := faulted.Stats()

	if fs.Admitted != fs.Offered || fs.Completed != fs.Admitted {
		t.Fatalf("lost-gpu run failed jobs: %+v", fs)
	}
	if fs.Drains == 0 {
		t.Fatalf("outage never drained a batch: %+v", fs)
	}
	if fs.LastEnd < hs.LastEnd {
		t.Fatalf("losing a GPU sped the run up: healthy %g, faulted %g", hs.LastEnd, fs.LastEnd)
	}
	for _, r := range faulted.Results() {
		if r.Rejected {
			continue
		}
		if r.Drained > 0 && r.End <= r.Start {
			t.Fatalf("drained job has no execution interval: %+v", r)
		}
	}
}

func TestWholePoolOutageFallsBackToCPU(t *testing.T) {
	// Every worker struck: no healthy peer to drain to, so batches execute
	// through the fault-aware CPU fallback — still zero failures.
	s, err := New(Config{Seed: 9, Workers: 2, Scenario: "lost-gpu", ScenarioHorizon: 0.2, StruckWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	stream(t, s, 200, 64, 1e-3)
	s.Run()
	st := s.Stats()
	if st.Completed != st.Admitted || st.Admitted != st.Offered {
		t.Fatalf("pool-wide outage failed jobs: %+v", st)
	}
}

func TestPerTenantTelemetry(t *testing.T) {
	tel := telemetry.New()
	s, err := New(Config{Seed: 2, Workers: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	stream(t, s, 90, 64, 1e-4)
	s.Run()

	var sb strings.Builder
	tel.Metrics.WriteText(&sb)
	dump := sb.String()
	for _, tenant := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(dump, "serve.tenant."+tenant+".completed") {
			t.Fatalf("tenant %s missing from dump:\n%s", tenant, dump)
		}
		if !strings.Contains(dump, "serve.tenant."+tenant+".latency_seconds") {
			t.Fatalf("tenant %s latency histogram missing", tenant)
		}
	}
	if strings.Contains(dump, "serve.tenant.delta") {
		t.Fatalf("unknown tenant registered")
	}
	if c := tel.Metrics.Counter("serve.jobs.completed").Value(); c != 90 {
		t.Fatalf("completed counter = %d", c)
	}
	h := tel.Metrics.Histogram("serve.latency_seconds", nil)
	if h.Count() != 90 {
		t.Fatalf("latency histogram count = %d", h.Count())
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Fatalf("p99 = %g", q)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	s, err := New(Config{Seed: 4, Workers: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate long enough that rejections late in the run see a measured
	// completion rate rather than the cold-start fallback.
	stream(t, s, 2000, 64, 1e-5)
	s.Run()
	sawMeasured := false
	for _, r := range s.Results() {
		if !r.Rejected {
			continue
		}
		if r.RetryAfter <= 0 {
			t.Fatalf("non-positive retry-after: %+v", r)
		}
		if r.RetryAfter != float64(maxBatchWindow) {
			sawMeasured = true
		}
	}
	if !sawMeasured {
		t.Fatalf("every retry-after used the cold-start fallback")
	}
}

// TestResultLookup covers Result(id) over the dense id-indexed store: ids the
// server never issued, issued but unresolved, rejected and completed; and the
// daemon's submit-one/run-one pattern, whose stores must grow amortised O(1).
func TestResultLookup(t *testing.T) {
	s, err := New(Config{Seed: 3, Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{0, 1, 1 << 40} {
		if r, ok := s.Result(id); ok {
			t.Fatalf("Result(%d) on an empty server resolved: %+v", id, r)
		}
	}
	stream(t, s, 100, 64, 1e-6)
	for id := uint64(0); id <= 101; id++ {
		if r, ok := s.Result(id); ok {
			t.Fatalf("Result(%d) resolved before the event loop ran: %+v", id, r)
		}
	}
	s.Run()
	st := s.Stats()
	if st.Rejected == 0 || st.Completed == 0 {
		t.Fatalf("want both rejections and completions: %+v", st)
	}
	rejected, completed := 0, 0
	for id := uint64(1); id <= 100; id++ {
		r, ok := s.Result(id)
		if !ok || r.ID != id {
			t.Fatalf("Result(%d) = %+v, %v", id, r, ok)
		}
		if r.Rejected {
			rejected++
		} else {
			completed++
		}
	}
	if rejected != st.Rejected || completed != st.Completed {
		t.Fatalf("looked up %d rejected + %d completed, stats %+v", rejected, completed, st)
	}
	for pos, r := range s.Results() {
		if got, _ := s.Result(r.ID); got != r {
			t.Fatalf("Result(%d) = %+v, but Results()[%d] = %+v", r.ID, got, pos, r)
		}
	}
	for _, id := range []uint64{0, 101, 1 << 40} {
		if r, ok := s.Result(id); ok {
			t.Fatalf("Result(%d) resolved an id never issued: %+v", id, r)
		}
	}

	// One job per Run, the way cmd/tianhed drives the server: the second
	// 10,000 rounds may not allocate much more than the first 10,000. Growing
	// either store to exactly the submitted high-water mark on every round
	// would make the second half cost gigabytes.
	d, err := New(Config{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			id, err := d.SubmitAt(Request{Tenant: "acme", Kind: "dgemm", M: 64, N: 256, K: 256}, d.Now())
			if err != nil {
				t.Fatal(err)
			}
			d.Run()
			if r, ok := d.Result(id); !ok || r.ID != id || r.Rejected {
				t.Fatalf("round %d: Result(%d) = %+v, %v", i, id, r, ok)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := rounds(10000), rounds(10000)
	if second > 2*first {
		t.Fatalf("allocation is not linear in jobs: first 10,000 rounds %d bytes, next 10,000 %d", first, second)
	}
}

// TestPoolRetainsNoSpans: the service's elements live as long as the daemon
// and nothing reads their retained spans, so serve.New turns retention off.
// A 4000 jobs/s replay leaves every pool timeline empty, while everything
// that is read — busy time, the utilisation gauges, the metric dump and the
// Chrome trace streamed through the observer path — matches a pool with
// retention switched back on.
func TestPoolRetainsNoSpans(t *testing.T) {
	replay := func(record bool) (*Server, string, string) {
		tel := telemetry.New()
		s, err := New(Config{Seed: 17, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range s.workers {
			if record {
				w.el.SetRecording(true)
			}
			w.el.Instrument(tel, fmt.Sprintf("w%d", w.idx))
		}
		stream(t, s, 2000, 64, 1.0/4000)
		s.Run()
		var metrics, trace strings.Builder
		tel.Metrics.WriteText(&metrics)
		if err := tel.Trace.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		return s, metrics.String(), trace.String()
	}
	lean, leanMetrics, leanTrace := replay(false)
	full, fullMetrics, fullTrace := replay(true)

	retained := 0
	for i, w := range lean.workers {
		for j, tl := range w.el.Timelines() {
			if n := len(tl.Spans()); n != 0 {
				t.Errorf("worker %d %s retains %d spans", i, tl.Name(), n)
			}
			ref := full.workers[i].el.Timelines()[j]
			retained += len(ref.Spans())
			if tl.Busy() != ref.Busy() || tl.Available() != ref.Available() {
				t.Errorf("worker %d %s: busy %g until %g, with retention %g until %g",
					i, tl.Name(), tl.Busy(), tl.Available(), ref.Busy(), ref.Available())
			}
		}
	}
	if retained == 0 {
		t.Fatalf("the retaining pool recorded no spans: the comparison proves nothing")
	}
	if !strings.Contains(leanMetrics, "element.util.gpu_queue") || !strings.Contains(leanTrace, "w0/gpu.queue") {
		t.Fatalf("utilisation gauge or resource track missing from the telemetry under comparison")
	}
	if leanMetrics != fullMetrics {
		t.Errorf("metric dump depends on span retention")
	}
	if leanTrace != fullTrace {
		t.Errorf("Chrome trace depends on span retention")
	}
	if !reflect.DeepEqual(lean.Results(), full.Results()) {
		t.Errorf("results depend on span retention")
	}
}

// TestBatchQueueOrder: FIFO, with a front requeue landing ahead of everything
// queued both when a popped slot is free before the head and when the queue
// ran empty in between.
func TestBatchQueueOrder(t *testing.T) {
	var q batchQueue
	bs := make([]*batch, 6)
	for i := range bs {
		bs[i] = &batch{id: uint64(i)}
	}
	drain := func(want ...int) {
		t.Helper()
		for _, id := range want {
			if q.len() == 0 {
				t.Fatalf("queue ran dry before batch %d", id)
			}
			if f, b := q.front(), q.popFront(); f != b || b != bs[id] {
				t.Fatalf("popped batch %d, want %d", b.id, id)
			}
		}
		if q.len() != 0 {
			t.Fatalf("%d batches left over", q.len())
		}
	}
	q.pushBack(bs[0])
	q.pushBack(bs[1])
	q.pushBack(bs[2])
	popped := q.popFront()
	q.pushBack(bs[3])
	q.pushFront(popped) // the vacated slot before head
	drain(0, 1, 2, 3)
	q.pushBack(bs[4])
	q.pushFront(bs[5]) // head is 0: the queue shifts
	drain(5, 4)
}
