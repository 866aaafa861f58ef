// Command tianhed is the solver service daemon: a JSON-over-HTTP front end
// for internal/serve that multiplexes concurrent solve/DGEMM jobs onto the
// adaptive hybrid runtime. It listens on -addr until SIGINT or SIGTERM, then
// stops accepting and lets the requests in flight finish. It serves:
//
//	POST /v1/jobs  — submit one job ({"tenant","kind","m","n","k"});
//	                 200 with the job's outcome, 429 with a Retry-After
//	                 estimate when the bounded admission queue is full,
//	                 400 on malformed requests.
//	GET  /metrics  — the telemetry registry as a text dump.
//	GET  /healthz  — liveness plus the service's aggregate stats.
//
// This is the one place in the repository that reads the wall clock: real
// arrival instants are mapped onto the service's virtual timeline at the
// edge, and everything behind the handler — admission, batching, dispatch,
// fault handling — runs deterministic virtual time (the nowalltime and
// detpure lint checks enforce the boundary over internal/; cmd/ is the
// contract table's declared wall-clock edge).
//
// The seeded open-loop load sweeps (healthy and lost-gpu, replayed in
// virtual time) are the serve.* rows of the ledger cmd/figures writes
// (BENCH_paper.json, checked by `make paperbench`).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tianhe/internal/experiments"
	"tianhe/internal/serve"
	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "daemon listen address")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "experiment seed")
	workers := flag.Int("workers", serve.DefaultWorkers, "dispatcher pool size (compute elements)")
	queueCap := flag.Int("queue", serve.DefaultQueueCap, "admission queue bound (jobs)")
	flag.Parse()

	tel := telemetry.New()
	d, err := newDaemon(serve.Config{
		Seed: *seed, Workers: *workers, QueueCap: *queueCap, Telemetry: tel,
	}, tel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tianhed: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tianhed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tianhed: serving on %s (seed %d, %d workers, queue %d)\n",
		ln.Addr(), *seed, *workers, *queueCap)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = serveUntil(ctx, ln, d.mux())
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tianhed: %v\n", err)
		os.Exit(1)
	}
}

// shutdownTimeout bounds how long a stopping daemon waits for its in-flight
// requests. A job's answer is one drain of the virtual event loop away, so
// the bound only matters for a client that stalls mid-request.
const shutdownTimeout = 5 * time.Second

// serveUntil serves h on ln until ctx is cancelled (SIGINT/SIGTERM in the
// daemon), then stops accepting connections and waits, at most
// shutdownTimeout, for the requests already in flight to get their answers.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
	defer cancel()
	err := srv.Shutdown(drain)
	<-served // Serve returns ErrServerClosed as soon as Shutdown begins
	return err
}

// daemon owns one serve.Server behind a mutex: the deterministic core is
// single-threaded by design, so concurrent HTTP requests serialize at the
// edge and their wall-clock arrival spacing becomes the virtual-time
// arrival process the adaptive batcher learns from.
type daemon struct {
	mu    sync.Mutex
	srv   *serve.Server
	tel   *telemetry.Telemetry
	lim   serve.Limits
	start time.Time
}

func newDaemon(cfg serve.Config, tel *telemetry.Telemetry) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	//lint:ignore nowalltime the daemon edge anchors the virtual timeline to the process start; everything behind the handlers stays virtual
	start := time.Now()
	return &daemon{srv: srv, tel: tel, lim: cfg.Limits, start: start}, nil
}

// arrivalTime maps the wall clock onto the virtual timeline: seconds since
// daemon start, clamped so it never precedes the event loop (jobs complete
// in virtual time, which may run ahead of the wall).
func (d *daemon) arrivalTime() sim.Time {
	//lint:ignore nowalltime the one wall-clock read per request: real arrival instants parameterize the virtual replay
	at := sim.Time(time.Since(d.start).Seconds())
	if now := d.srv.Now(); at < now {
		at = now
	}
	return at
}

func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", d.handleJob)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealth)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (d *daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, _, err := serve.ParseRequest(body, d.lim)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	d.mu.Lock()
	id, err := d.srv.SubmitAt(req, d.arrivalTime())
	if err == nil {
		// Drain the event loop: the job's batch seals (window timers are
		// virtual events), dispatches, and completes before we answer.
		d.srv.Run()
	}
	var res serve.Result
	var ok bool
	if err == nil {
		res, ok = d.srv.Result(id)
	}
	d.mu.Unlock()

	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusInternalServerError, "job vanished from the event loop")
		return
	}
	resp := serve.ResponseFromResult(res)
	data, err := serve.MarshalResponse(resp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Rejected {
		w.Header().Set("Retry-After", strconv.Itoa(int(res.RetryAfter)+1))
		w.WriteHeader(http.StatusTooManyRequests)
	}
	w.Write(append(data, '\n'))
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	d.tel.Metrics.WriteText(w)
}

func (d *daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	st := d.srv.Stats()
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status": "ok",
		"stats":  st,
	})
}
