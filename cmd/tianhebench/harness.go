package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// budget bounds a run of passes: a fixed count, or, when that is zero, as
// many as fit in seconds (and at least three).
type budget struct {
	passes  int
	seconds float64
}

func (b budget) spent(done int, elapsed float64) bool {
	if b.passes > 0 {
		return done >= b.passes
	}
	return done >= 3 && elapsed >= b.seconds
}

// runPlan says how much of a workload one invocation measures.
type runPlan struct {
	env
	// setups is how many times the workload is set up; setup_s is their
	// median and the last one's pass is the one measured.
	setups   int
	untraced budget
	// traced is the traced run that follows; the zero budget skips it.
	traced budget
}

// workloadRun is what measuring one workload yields.
type workloadRun struct {
	Workload string `json:"workload"`
	// Passes counts the passes attempted, untraced and traced; Failed the
	// ones whose checks failed.
	Passes   int      `json:"passes"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// SetupS, WallMs and AllocMB are the raw host samples: one per set-up,
	// one per untraced pass.
	SetupS  []float64 `json:"setup_s"`
	WallMs  []float64 `json:"op_wall_ms"`
	AllocMB []float64 `json:"op_alloc_mb"`
	// Values are the simulated times, rates and exact counts of a pass,
	// identical on every pass.
	Values values `json:"values"`
	// CalibMs are the calibration kernel's readings before and after.
	CalibMs [2]float64 `json:"calib_ms"`
	Noisy   bool       `json:"noisy"`
	// TracedWallMs are the host samples of the traced passes.
	TracedWallMs []float64 `json:"traced_op_wall_ms,omitempty"`
	// Layer are the per-layer metrics of the traced run and the probes.
	Layer values `json:"layer,omitempty"`

	spans  []span
	counts map[string]int64
}

// now reads the host clock. Every host-time metric is measured through here
// and through since; nothing the simulators compute ever sees it.
func now() time.Time {
	//lint:ignore nowalltime the benchmark measures host time: this is the wall-clock edge cmd/ exists for
	return time.Now()
}

// since returns the host seconds elapsed since t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// calibN is the order of the calibration kernel.
const calibN = 192

// calibrate times a fixed naive triple loop the harness owns, in
// milliseconds (median of five). It shares no code with the program under
// test, so a change there cannot move it: it reads the host, nothing else.
func calibrate() float64 {
	a := make([]float64, calibN*calibN)
	b := make([]float64, calibN*calibN)
	c := make([]float64, calibN*calibN)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		start := now()
		for i := 0; i < calibN; i++ {
			for j := 0; j < calibN; j++ {
				sum := 0.0
				for k := 0; k < calibN; k++ {
					sum += a[i*calibN+k] * b[k*calibN+j]
				}
				c[i*calibN+j] = sum
			}
		}
		samples = append(samples, 1e3*since(start))
	}
	if math.IsNaN(c[0]) {
		panic("calibration kernel produced NaN")
	}
	return median(samples)
}

// noisyCalib reports whether the two calibration readings differ by more
// than a tenth: the host changed speed while the workload ran.
func noisyCalib(before, after float64) bool {
	return math.Abs(after-before) > 0.10*math.Min(before, after)
}

// maxFailures bounds the failure messages kept per workload.
const maxFailures = 8

func (r *workloadRun) fail(where string, err error) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", where, err))
	}
}

// sameValues reports whether two passes yielded bit-identical values.
func sameValues(a, b values) error {
	if len(a) != len(b) {
		return fmt.Errorf("pass yielded %d values, the first pass %d", len(b), len(a))
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("%s = %v, the first pass had %v", k, y, x)
		}
	}
	return nil
}

// measure runs one workload from a single goroutine: calibrate, set up,
// untraced passes, traced passes, calibrate.
func measure(w *workload, plan runPlan) (*workloadRun, error) {
	run := &workloadRun{Workload: w.name}
	run.CalibMs[0] = calibrate()

	var pass passFunc
	for i := 0; i < plan.setups; i++ {
		start := now()
		p, err := w.setup(plan.env)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// One untimed warm-up pass belongs to set-up: it fills caches and
		// pools and yields the values every timed pass must reproduce.
		v, err := p(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
		}
		run.SetupS = append(run.SetupS, since(start))
		pass, run.Values = p, v
	}

	// timed runs passes until the budget is spent and returns the host
	// milliseconds and allocated megabytes of those that passed their checks.
	timed := func(rec *recorder, b budget) (wall, alloc []float64) {
		var ms runtime.MemStats
		begin := now()
		for i := 0; !b.spent(i, since(begin)); i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			endPass := rec.beginPass(i)
			start := now()
			v, err := pass(rec)
			elapsed := since(start)
			endPass()
			runtime.ReadMemStats(&ms)
			run.Passes++
			if err == nil {
				err = sameValues(run.Values, v)
			}
			if err != nil {
				run.fail(fmt.Sprintf("pass %d", i), err)
				continue
			}
			wall = append(wall, 1e3*elapsed)
			alloc = append(alloc, float64(ms.TotalAlloc-before)/(1<<20))
		}
		return wall, alloc
	}

	runtime.GC()
	run.WallMs, run.AllocMB = timed(nil, plan.untraced)
	if plan.traced != (budget{}) {
		rec := newRecorder()
		end := rec.begin(w.name)
		run.TracedWallMs, _ = timed(rec, plan.traced)
		end()
		run.spans, run.counts = rec.spans, rec.counts
		if e := selfSumError(rec.spans); e > 0.01 {
			run.fail("traced run", fmt.Errorf("self times miss a pass span by %.2f%%", 100*e))
		}
	}

	run.CalibMs[1] = calibrate()
	run.Noisy = noisyCalib(run.CalibMs[0], run.CalibMs[1])
	if len(run.WallMs) == 0 {
		return run, fmt.Errorf("%s: no pass succeeded: %v", w.name, run.Failures)
	}
	return run, nil
}
