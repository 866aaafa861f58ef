package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
