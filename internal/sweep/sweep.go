// Package sweep is the deterministic parallel sweep executor: it runs the
// independent points of an experiment sweep (simulated configurations,
// ablation settings, fault policies) concurrently across a worker pool while
// guaranteeing output byte-identical to the serial loop it replaces.
//
// The determinism contract, and how each clause is enforced:
//
//   - Per-point seeds are a pure function of the point index (Seed), never
//     of scheduling or completion order.
//   - Each point records into its own *telemetry.Telemetry bundle at every
//     par; MapTel merges the children into the parent in point-index order
//     after every point has finished, so metric values (float sums
//     included), trace event order and track registration order are the
//     same bytes for every par.
//   - Results come back as a slice indexed by point, and callers reduce
//     them in index order, so tables and logs are emitted in point order,
//     never in finish order.
//   - par <= 1 runs the loop body inline on the caller's goroutine and
//     spawns no goroutine; the points still record into their own bundles
//     and are merged exactly as at any other par.
//
// Callbacks must not write package-level mutable state — every run of a
// sweep may interleave with every other. The detpure analyzer in
// cmd/tianhelint enforces this statically, including writes reached
// through helpers the callback calls.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tianhe/internal/telemetry"
)

// Workers normalizes a -par flag value: values <= 0 select
// runtime.GOMAXPROCS(0), anything else passes through.
func Workers(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// Seed derives the per-point seed for point index i from a base seed: a
// SplitMix64 mix of base and index, so neighbouring points get uncorrelated
// streams and the derivation depends on nothing but (base, i).
func Seed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pointPanic carries a panic out of a worker with its point index, so the
// lowest-index panic is re-raised regardless of scheduling.
type pointPanic struct {
	index int
	value any
}

// Map runs fn over every point concurrently on min(par, len(pts)) workers
// and returns the results in point order. par <= 1 runs the exact serial
// loop inline. A canceled ctx stops workers from starting further points;
// results of unstarted points are the zero value. If any fn panics, the
// panic with the lowest point index is re-raised on the caller after all
// workers have stopped.
func Map[P, R any](ctx context.Context, par int, pts []P, fn func(i int, p P) R) []R {
	out := make([]R, len(pts))
	if len(pts) == 0 {
		return out
	}
	if par <= 1 || len(pts) == 1 {
		for i, p := range pts {
			if ctx.Err() != nil {
				break
			}
			out[i] = fn(i, p)
		}
		return out
	}
	workers := par
	if workers > len(pts) {
		workers = len(pts)
	}
	var next atomic.Int64
	panics := make([]*pointPanic, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pts) || ctx.Err() != nil {
					return
				}
				if pp := runPoint(i, pts[i], fn, out); pp != nil {
					panics[w] = pp
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first *pointPanic
	for _, pp := range panics {
		if pp != nil && (first == nil || pp.index < first.index) {
			first = pp
		}
	}
	if first != nil {
		panic(fmt.Sprintf("sweep: point %d panicked: %v", first.index, first.value))
	}
	return out
}

// runPoint executes one point, converting a panic into a pointPanic.
func runPoint[P, R any](i int, p P, fn func(i int, p P) R, out []R) (pp *pointPanic) {
	defer func() {
		if r := recover(); r != nil {
			pp = &pointPanic{index: i, value: r}
		}
	}()
	out[i] = fn(i, p)
	return nil
}

// MapTel is Map for instrumented sweeps: at every par each point gets its
// own bundle — enabled exactly when the parent is — and the children are
// merged into the parent in point-index order after all points completed.
func MapTel[P, R any](ctx context.Context, par int, tel *telemetry.Telemetry, pts []P, fn func(i int, p P, tel *telemetry.Telemetry) R) []R {
	children := make([]*telemetry.Telemetry, len(pts))
	if tel.Enabled() {
		for i := range children {
			children[i] = telemetry.New()
		}
	}
	out := Map(ctx, par, pts, func(i int, p P) R { return fn(i, p, children[i]) })
	for _, child := range children {
		tel.Merge(child)
	}
	return out
}

// For shards [0, n) into min(par, n) contiguous chunks and runs body
// concurrently, one chunk per goroutine: body(shard, lo, hi) covers indices
// [lo, hi). par <= 1 calls body(0, 0, n) inline — the serial path. For is
// the inner parallel-for for loops whose per-index work is independent and
// whose reduction is order-insensitive (max, exact sums of integers); the
// caller owns the per-shard reduction.
func For(par, n int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if par <= 1 || n == 1 {
		body(0, 0, n)
		return
	}
	shards := par
	if shards > n {
		shards = n
	}
	chunk := n / shards
	rem := n % shards
	var wg sync.WaitGroup
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + chunk
		if s < rem {
			hi++
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			body(s, lo, hi)
		}(s, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// Shards returns the shard count For will use for n items at par workers —
// callers size their per-shard reduction buffers with it.
func Shards(par, n int) int {
	if n <= 0 {
		return 0
	}
	if par <= 1 || n == 1 {
		return 1
	}
	if par > n {
		return n
	}
	return par
}
