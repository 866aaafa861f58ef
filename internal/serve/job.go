// Package serve is the solver service layer: it multiplexes many small
// concurrent solve/DGEMM jobs from independent tenants onto the adaptive
// hybrid runtime the rest of the repository builds. The paper's machinery
// optimizes one large operation at a time — the split databases, the
// pipeline, the fault fallbacks all assume work arrives as big blocked
// calls — so the serving layer's job is to manufacture those calls out of
// request traffic: a bounded admission queue applies backpressure, an
// adaptive batcher coalesces compatible jobs into one hybrid call sized to
// the measured service rate, and a dispatcher pool spreads the sealed
// batches across fault-aware hybrid.Runner backends.
//
// Everything in this package runs in virtual time on a deterministic
// discrete-event loop (sim.Engine): a seeded load replay produces
// bit-identical results on any machine and under any -par. Wall-clock time
// exists only at the serving edge, in cmd/tianhed, which maps real arrival
// instants onto the virtual timeline before entering this package. The
// detpure contract on this package enforces the boundary statically and
// transitively: serve must not reach wall-clock time or ambient randomness
// through any call chain, nor write package-level state.
package serve

import (
	"fmt"

	"tianhe/internal/sim"
)

// Kind classifies a job: a rectangular DGEMM update or a dense solve.
type Kind int

const (
	// DGEMM is an m x n x k matrix multiply-accumulate job: the job
	// contributes M rows to a batch that shares (N, K).
	DGEMM Kind = iota
	// Solve is a dense LU solve of order N. The serving cost model admits
	// it as its Schur-complement-dominant workload — an N x N x ceil(N/3)
	// update carrying the 2/3·N³ flops of the factorization — so solves
	// batch onto the same hybrid backends as DGEMM traffic (see DESIGN.md,
	// "wall clock at the edge / solve admission model").
	Solve
)

func (k Kind) String() string {
	switch k {
	case DGEMM:
		return "dgemm"
	case Solve:
		return "solve"
	}
	return fmt.Sprintf("serve.kind(%d)", int(k))
}

// KindFromString parses the wire spelling of a Kind.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "dgemm":
		return DGEMM, nil
	case "solve":
		return Solve, nil
	}
	return 0, fmt.Errorf("serve: unknown job kind %q (want dgemm or solve)", s)
}

// Limits bound the shapes the service admits. The zero value selects the
// defaults; they exist so a malformed or adversarial request cannot book
// unbounded virtual work.
type Limits struct {
	// MaxRows caps a single job's row contribution M (DGEMM) or order N
	// (Solve). 0 selects DefaultMaxRows.
	MaxRows int
	// MaxDim caps N and K. 0 selects DefaultMaxDim.
	MaxDim int
}

// DefaultMaxRows is the default per-job row cap: one job may contribute at
// most this many rows to a batch (the GPU's 2D resource limit).
const DefaultMaxRows = 8192

// DefaultMaxDim is the default cap on the shared batch dimensions N and K.
const DefaultMaxDim = 8192

func (l Limits) withDefaults() Limits {
	if l.MaxRows == 0 {
		l.MaxRows = DefaultMaxRows
	}
	if l.MaxDim == 0 {
		l.MaxDim = DefaultMaxDim
	}
	return l
}

// Job is one admitted unit of work. M, N, K is the DGEMM shape; for Solve
// jobs N holds the order and M, K the derived admission shape.
type Job struct {
	ID     uint64
	Tenant string
	Kind   Kind
	M      int
	N      int
	K      int
	// Submit is the virtual arrival time (set by the server at admission).
	Submit sim.Time
}

// solveK returns the K dimension of the solve admission model: a solve of
// order n carries 2/3·n³ flops, which the n x n x ceil(n/3) update shape
// reproduces (to rounding) on the same hybrid backends.
func solveK(n int) int {
	return (n + 2) / 3
}

// jobFromRequest validates a request against resolved limits (no zero
// fields: see Limits.withDefaults) and expands it to a Job (ID and Submit
// are assigned by the server at admission).
func jobFromRequest(req Request, lim Limits) (Job, error) {
	if req.Tenant == "" {
		return Job{}, fmt.Errorf("serve: request missing tenant")
	}
	kind, err := KindFromString(req.Kind)
	if err != nil {
		return Job{}, err
	}
	switch kind {
	case DGEMM:
		if req.M <= 0 || req.N <= 0 || req.K <= 0 {
			return Job{}, fmt.Errorf("serve: dgemm shape %dx%dx%d not positive", req.M, req.N, req.K)
		}
		if req.M > lim.MaxRows {
			return Job{}, fmt.Errorf("serve: dgemm rows %d exceed the %d-row job limit", req.M, lim.MaxRows)
		}
		if req.N > lim.MaxDim || req.K > lim.MaxDim {
			return Job{}, fmt.Errorf("serve: dgemm dimensions %dx%d exceed the %d limit", req.N, req.K, lim.MaxDim)
		}
		return Job{Tenant: req.Tenant, Kind: DGEMM, M: req.M, N: req.N, K: req.K}, nil
	case Solve:
		if req.N <= 0 {
			return Job{}, fmt.Errorf("serve: solve order %d not positive", req.N)
		}
		if req.M != 0 || req.K != 0 {
			return Job{}, fmt.Errorf("serve: solve requests carry only the order n (got m=%d k=%d)", req.M, req.K)
		}
		if req.N > lim.MaxRows || req.N > lim.MaxDim {
			return Job{}, fmt.Errorf("serve: solve order %d exceeds the %d limit", req.N, min(lim.MaxRows, lim.MaxDim))
		}
		return Job{Tenant: req.Tenant, Kind: Solve, M: req.N, N: req.N, K: solveK(req.N)}, nil
	}
	return Job{}, fmt.Errorf("serve: unhandled kind %v", kind)
}

// Result is the outcome of one request: either a rejection at admission
// (bounded queue full — the only way the service ever declines work) or a
// completed job with its virtual timing. The service never fails an
// admitted job: device loss drains batches back into the queue and degrades
// throughput instead (see Server dispatch).
type Result struct {
	ID     uint64
	Tenant string
	Kind   Kind
	// Rejected marks an admission rejection; RetryAfter is the server's
	// virtual-time estimate of when capacity frees up.
	Rejected   bool
	RetryAfter float64
	// Submit, Start, End bound the job in virtual time: arrival, batch
	// dispatch, batch completion.
	Submit, Start, End sim.Time
	// BatchID identifies the coalesced hybrid call that carried the job;
	// BatchJobs its occupancy; GSplit the adaptive split it executed with.
	BatchID   uint64
	BatchJobs int
	GSplit    float64
	// Drained counts how many times the job's sealed batch was drained
	// back into the queue by a device outage before it finally ran.
	Drained int
}

// Latency returns the job's end-to-end virtual latency (0 for rejections).
func (r Result) Latency() float64 {
	if r.Rejected {
		return 0
	}
	return r.End - r.Submit
}
