package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tianhe/internal/experiments"
	"tianhe/internal/serve"
	"tianhe/internal/telemetry"
)

func testDaemon(t *testing.T) *daemon {
	t.Helper()
	tel := telemetry.New()
	d, err := newDaemon(serve.Config{Seed: 42, Workers: 2, Telemetry: tel}, tel)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func post(t *testing.T, d *daemon, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	return rec
}

func TestDaemonJobLifecycle(t *testing.T) {
	d := testDaemon(t)
	rec := post(t, d, `{"tenant":"acme","kind":"solve","n":512}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp, err := serve.ParseResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if resp.Status != "ok" || resp.ID != 1 || resp.Tenant != "acme" {
		t.Fatalf("response: %+v", resp)
	}
	// A second job advances the ID and completes as well.
	resp2, err := serve.ParseResponse(post(t, d, `{"tenant":"acme","kind":"dgemm","m":64,"n":256,"k":256}`).Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ID != 2 || resp2.Status != "ok" {
		t.Fatalf("second response: %+v", resp2)
	}
}

func TestDaemonRejectsMalformed(t *testing.T) {
	d := testDaemon(t)
	for _, body := range []string{
		`not json`,
		`{"tenant":"a","kind":"lu","n":64}`,
		`{"kind":"solve","n":64}`,
		`{"tenant":"a","kind":"solve","n":-1}`,
	} {
		if rec := post(t, d, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
}

func TestDaemonMetricsAndHealth(t *testing.T) {
	d := testDaemon(t)
	post(t, d, `{"tenant":"acme","kind":"solve","n":256}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve.jobs.completed") {
		t.Fatalf("metrics: %d\n%s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "serve.tenant.acme.latency_seconds") {
		t.Fatalf("per-tenant metrics missing:\n%s", rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	var health struct {
		Status string
		Stats  serve.Stats
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Stats.Completed != 1 {
		t.Fatalf("health: %+v", health)
	}
}

// TestShutdownAnswersInFlightRequest: cancelling the daemon's context (what
// SIGINT/SIGTERM do) closes the listener but lets a POST /v1/jobs that is
// already inside the handler finish with its normal answer.
func TestShutdownAnswersInFlightRequest(t *testing.T) {
	d := testDaemon(t)
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		d.mux().ServeHTTP(w, r)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- serveUntil(ctx, ln, handler) }()

	// Holding the daemon's lock parks the request inside handleJob.
	d.mu.Lock()
	type answer struct {
		status int
		body   []byte
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/jobs", "application/json",
			strings.NewReader(`{"tenant":"acme","kind":"solve","n":512}`))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, body, err}
	}()
	<-entered
	cancel()
	// Shutdown has begun once the listener refuses new connections.
	for {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		conn.Close()
	}
	select {
	case err := <-stopped:
		t.Fatalf("daemon stopped with a request in flight: %v", err)
	default:
	}
	d.mu.Unlock()

	a := <-answered
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, err %v, body %s", a.status, a.err, a.body)
	}
	resp, err := serve.ParseResponse(a.body)
	if err != nil || resp.Status != "ok" || resp.ID != 1 {
		t.Fatalf("in-flight response: %+v, %v", resp, err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("500, 1000,2000")
	if err != nil || len(rates) != 3 || rates[2] != 2000 {
		t.Fatalf("rates %v err %v", rates, err)
	}
	if _, err := parseRates("12,zero"); err == nil {
		t.Fatal("bad rate accepted")
	}
	if rates, err := parseRates(""); err != nil || rates != nil {
		t.Fatalf("empty: %v %v", rates, err)
	}
}

func TestRunBenchAndRegressionGuard(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var buf bytes.Buffer
	// A deliberately small trajectory to keep the test tier fast.
	if err := runBench(&buf, 42, 128, 2, "1000,4000", out, "", 10, 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.ServeBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != experiments.ServeBenchSchema || res.PeakThroughput <= 0 {
		t.Fatalf("artifact: %+v", res)
	}
	if len(res.Healthy) != 2 || len(res.LostGPU) != 2 {
		t.Fatalf("points: %d healthy, %d lost-gpu", len(res.Healthy), len(res.LostGPU))
	}
	if !strings.Contains(buf.String(), "saturation") {
		t.Fatalf("summary missing:\n%s", buf.String())
	}

	// Same seed against its own artifact: deterministic, passes the guard.
	buf.Reset()
	if err := runBench(&buf, 42, 128, 2, "1000,4000", out, out, 10, 2); err != nil {
		t.Fatalf("self-baseline regression: %v", err)
	}
	if !strings.Contains(buf.String(), "regression guard") {
		t.Fatalf("guard line missing:\n%s", buf.String())
	}

	// An inflated baseline must trip the guard.
	res.PeakThroughput *= 2
	for i := range res.Healthy {
		res.Healthy[i].Throughput *= 2
	}
	inflated := filepath.Join(dir, "inflated.json")
	data, _ = json.Marshal(res)
	if err := os.WriteFile(inflated, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBench(&buf, 42, 128, 2, "1000,4000", out, inflated, 10, 2); err == nil {
		t.Fatal("inflated baseline passed the regression guard")
	}
}
