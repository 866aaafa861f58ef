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

// health reads the daemon's /healthz stats.
func health(t *testing.T, d *daemon) serve.Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h struct {
		Status string
		Stats  serve.Stats
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %v: %s", err, rec.Body.String())
	}
	return h.Stats
}

// TestDaemonRejectsMalformed: every malformed request is refused with its
// status code and a JSON error body, and leaves the service untouched — no
// offered job in /healthz, no job id consumed, so the first valid job after
// all of them is still job 1.
func TestDaemonRejectsMalformed(t *testing.T) {
	d := testDaemon(t)
	bad := http.StatusBadRequest
	for _, c := range []struct {
		name, method, body string
		status             int
		reason             string // what the error names
	}{
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed, "POST only"},
		{"empty body", http.MethodPost, "", bad, "bad request JSON"},
		{"not JSON", http.MethodPost, `not json`, bad, "bad request JSON"},
		{"body over the 64 KiB cap", http.MethodPost,
			`{"tenant":"` + strings.Repeat("a", 1<<16) + `","kind":"solve","n":64}`, bad, "too large"},
		{"unknown kind", http.MethodPost, `{"tenant":"a","kind":"lu","n":64}`, bad, "unknown job kind"},
		{"missing tenant", http.MethodPost, `{"kind":"solve","n":64}`, bad, "missing tenant"},
		{"dgemm rows over MaxRows", http.MethodPost, `{"tenant":"a","kind":"dgemm","m":8193,"n":256,"k":256}`, bad, "8192-row job limit"},
		{"dgemm n over MaxDim", http.MethodPost, `{"tenant":"a","kind":"dgemm","m":64,"n":8193,"k":256}`, bad, "exceed the 8192 limit"},
		{"dgemm k over MaxDim", http.MethodPost, `{"tenant":"a","kind":"dgemm","m":64,"n":256,"k":8193}`, bad, "exceed the 8192 limit"},
		{"solve order over the limits", http.MethodPost, `{"tenant":"a","kind":"solve","n":8193}`, bad, "exceeds the 8192 limit"},
		{"dgemm zero rows", http.MethodPost, `{"tenant":"a","kind":"dgemm","m":0,"n":256,"k":256}`, bad, "not positive"},
		{"dgemm negative k", http.MethodPost, `{"tenant":"a","kind":"dgemm","m":64,"n":256,"k":-1}`, bad, "not positive"},
		{"solve zero order", http.MethodPost, `{"tenant":"a","kind":"solve","n":0}`, bad, "not positive"},
		{"solve negative order", http.MethodPost, `{"tenant":"a","kind":"solve","n":-1}`, bad, "not positive"},
		{"solve carrying m", http.MethodPost, `{"tenant":"a","kind":"solve","m":64,"n":64}`, bad, "carry only the order"},
		{"solve carrying k", http.MethodPost, `{"tenant":"a","kind":"solve","n":64,"k":64}`, bad, "carry only the order"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := health(t, d)
			rec := httptest.NewRecorder()
			d.mux().ServeHTTP(rec, httptest.NewRequest(c.method, "/v1/jobs", strings.NewReader(c.body)))
			if rec.Code != c.status {
				t.Errorf("status %d, want %d: %s", rec.Code, c.status, rec.Body.String())
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, c.reason) {
				t.Errorf("want a JSON error field naming %q, got %q (%v)", c.reason, rec.Body.String(), err)
			}
			if after := health(t, d); after != before {
				t.Errorf("a refused request moved the stats: %+v -> %+v", before, after)
			}
		})
	}
	resp, err := serve.ParseResponse(post(t, d, `{"tenant":"a","kind":"solve","n":64}`).Body.Bytes())
	if err != nil || resp.ID != 1 || resp.Status != "ok" {
		t.Fatalf("first valid job after the refusals: %+v, %v; want job 1", resp, err)
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
