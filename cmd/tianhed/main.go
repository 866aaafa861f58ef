// Command tianhed is the solver service daemon: a JSON-over-HTTP front end
// for internal/serve that multiplexes concurrent solve/DGEMM jobs onto the
// adaptive hybrid runtime. It runs in two modes.
//
// Daemon mode (default) listens on -addr until SIGINT or SIGTERM, then stops
// accepting and lets the requests in flight finish. It serves:
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
// Bench mode (-bench) replays the seeded open-loop load sweep (healthy and
// lost-gpu) entirely in virtual time and writes BENCH_serve.json, the
// repository's perf-trajectory artifact. With -baseline it compares the
// fresh run against the committed artifact and exits non-zero if sustained
// throughput regressed by more than -tolerance percent; results are
// bit-reproducible for a fixed -seed and any -par, so a regression is a
// code change, never noise.
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
	"strings"
	"sync"
	"syscall"
	"time"

	"tianhe/internal/experiments"
	"tianhe/internal/serve"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "daemon listen address")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "experiment seed")
	workers := flag.Int("workers", serve.DefaultWorkers, "dispatcher pool size (compute elements)")
	queueCap := flag.Int("queue", serve.DefaultQueueCap, "admission queue bound (jobs)")
	benchMode := flag.Bool("bench", false, "run the serving benchmark and write -o instead of serving")
	clients := flag.Int("clients", 1200, "simulated open-loop clients in -bench mode")
	ratesFlag := flag.String("rates", "", "comma-separated arrival rates for -bench (default "+
		fmt.Sprint(experiments.DefaultServeRates)+")")
	out := flag.String("o", "BENCH_serve.json", "benchmark output path")
	baseline := flag.String("baseline", "", "committed benchmark to guard against (errors on regression)")
	tolerance := flag.Float64("tolerance", 10, "throughput regression tolerance in percent")
	parFlag := flag.Int("par", 0, "worker count (<=0: GOMAXPROCS); bench output is identical for every value")
	flag.Parse()
	par := sweep.Workers(*parFlag)

	if *benchMode {
		if err := runBench(os.Stdout, *seed, *clients, *workers, *ratesFlag, *out, *baseline, *tolerance, par); err != nil {
			fmt.Fprintf(os.Stderr, "tianhed: %v\n", err)
			os.Exit(1)
		}
		return
	}

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

// parseRates parses a comma-separated rate list; empty selects the default
// sweep.
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// runBench runs the benchmark trajectory, writes the artifact, and applies
// the regression guard when a baseline is given.
func runBench(w io.Writer, seed uint64, clients, workers int, ratesFlag, out, baseline string, tolerance float64, par int) error {
	rates, err := parseRates(ratesFlag)
	if err != nil {
		return err
	}
	res, err := experiments.ServeBench(seed, clients, workers, rates, par)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "serve bench: seed %d, %d clients, %d workers\n", res.Seed, res.Clients, res.Workers)
	experiments.WriteServeTable(w, "healthy", res.Healthy)
	experiments.WriteServeTable(w, "lost-gpu", res.LostGPU)
	fmt.Fprintf(w, "saturation at %g jobs/s offered, peak sustained %.1f jobs/s\n",
		res.SaturationRate, res.PeakThroughput)
	fmt.Fprintf(w, "wrote %s\n", out)

	if baseline == "" {
		return nil
	}
	baseData, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base experiments.ServeBenchResult
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Schema != experiments.ServeBenchSchema {
		return fmt.Errorf("baseline schema %q, want %q", base.Schema, experiments.ServeBenchSchema)
	}
	if err := experiments.ServeRegression(res, base, tolerance); err != nil {
		return err
	}
	fmt.Fprintf(w, "regression guard: peak %.1f jobs/s within %.0f%% of baseline %.1f — ok\n",
		res.PeakThroughput, tolerance, base.PeakThroughput)
	return nil
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
