// Package abft implements algorithm-based fault tolerance for the DGEMM
// tasks of the hybrid runtime: Huang–Abraham row/column checksums that
// detect a silent data corruption in a task's output, localize a single
// corrupted element to its (row, column), and bound the recovery to
// recomputing just the affected task — escalating to the checkpoint/restore
// machinery only when the corruption is uncorrectable (the checksum row or
// column itself was hit, or more than one element of the tile flipped).
//
// The encoding follows Huang & Abraham (1984): for C = alpha*A*B + beta*C0,
// the expected column checksums are alpha*(eᵀA)*B + beta*(eᵀC0) and the
// expected row checksums alpha*A*(B*e) + beta*(C0*e), both computable with
// two GEMV-shaped passes — O(k*(m+n) + m*n) work against the kernel's
// O(m*n*k), which is what keeps the verification overhead in the low
// single-digit percents for the paper's 8192-wide tiles (see VerifyFlops).
//
// The virtual-scale runtimes (pipeline, taskgraph, hybrid, linpacksim) do not
// hold the numbers, so they share the verdict instead: Tally counts outcomes,
// Tally.Strike asks the fault injector whether a drained task was struck and
// classifies the hit, and Probes publishes a tally as metrics (tally.go).
//
// Purity: everything in this package is a function of its arguments and the
// injector's seeded per-task streams — no wall clock, no global randomness,
// no package-level state. The detpure contract in internal/analyzers enforces
// this, because verification and recomputation run on the recovery hot path
// of deterministic simulations.
package abft

import (
	"math"

	"tianhe/internal/matrix"
)

// eps is the double-precision unit roundoff.
const eps = 2.220446049250313e-16

// Check carries the expected checksums of one DGEMM output C = alpha*A*B +
// beta*C0, computed from the inputs before (or concurrently with) the
// kernel. RowSum[i] is the expected sum of row i; ColSum[j] of column j.
type Check struct {
	M, N, K int
	RowSum  []float64
	ColSum  []float64
	// Tol is the mismatch threshold: checksum differences below it are
	// rounding, at or above it corruption. It scales with the magnitude of
	// the data and the summation lengths.
	Tol float64
}

// Expect computes the checksums the output of C = alpha*A*B + beta*C0 must
// satisfy. a is m x k, b is k x n, c0 is the pre-update C (ignored when
// beta == 0; it may be nil then).
func Expect(alpha float64, a, b *matrix.Dense, beta float64, c0 *matrix.Dense) Check {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k {
		panic("abft: inner dimensions of A and B disagree")
	}
	if beta != 0 && (c0 == nil || c0.Rows != m || c0.Cols != n) {
		panic("abft: beta != 0 needs the pre-update C0 of the output shape")
	}
	chk := Check{M: m, N: n, K: k, RowSum: make([]float64, m), ColSum: make([]float64, n)}

	// u = eᵀA (column sums of A, length k); column checksums = alpha*u*B.
	u := make([]float64, k)
	for p := 0; p < k; p++ {
		col := a.Col(p)
		s := 0.0
		for _, v := range col {
			s += v
		}
		u[p] = s
	}
	for j := 0; j < n; j++ {
		col := b.Col(j)
		s := 0.0
		for p, v := range col {
			s += u[p] * v
		}
		chk.ColSum[j] = alpha * s
	}

	// v = B*e (row sums of B, length k); row checksums = alpha*A*v.
	v := make([]float64, k)
	for j := 0; j < n; j++ {
		col := b.Col(j)
		for p, w := range col {
			v[p] += w
		}
	}
	for p := 0; p < k; p++ {
		if v[p] == 0 {
			continue
		}
		col := a.Col(p)
		w := alpha * v[p]
		for i, av := range col {
			chk.RowSum[i] += av * w
		}
	}

	maxA, maxB := a.MaxAbs(), b.MaxAbs()
	mag := math.Abs(alpha) * maxA * maxB * float64(k)
	if beta != 0 {
		maxC := c0.MaxAbs()
		mag += math.Abs(beta) * maxC
		for j := 0; j < n; j++ {
			col := c0.Col(j)
			for i, v := range col {
				chk.RowSum[i] += beta * v
				chk.ColSum[j] += beta * v
			}
		}
	}
	// The checksum of a row sums n entries of magnitude <= mag; of a column,
	// m entries. Both sides (expected and observed) carry the inner
	// k-length accumulation error as well. The constant is generous: the
	// codec must never cry wolf on clean arithmetic, and injected flips are
	// orders of magnitude above any honest rounding.
	chk.Tol = 64 * eps * (mag + 1) * float64(m+n+k+4)
	return chk
}

// Verdict is the result of verifying one output tile against its checksums.
type Verdict struct {
	// OK means every checksum matched: no detectable corruption.
	OK bool
	// Rows and Cols list the indices whose checksums mismatched.
	Rows, Cols []int
	// Correctable means exactly one row and one column mismatched: the
	// corruption localizes to the single element (Row, Col) and Delta is
	// the observed-minus-expected error there, so subtracting Delta
	// restores the value (up to the checksum's own rounding).
	Correctable bool
	Row, Col    int
	Delta       float64
}

// Verify checks an output tile against its expected checksums, localizing a
// single corrupted element when possible. A NaN in the output (exponent
// flips can produce one) counts as a mismatch of its row and column.
func Verify(c *matrix.Dense, chk Check) Verdict {
	if c.Rows != chk.M || c.Cols != chk.N {
		panic("abft: verified tile does not match the encoded shape")
	}
	rowSum := make([]float64, chk.M)
	var v Verdict
	for j := 0; j < chk.N; j++ {
		col := c.Col(j)
		s := 0.0
		for i, w := range col {
			s += w
			rowSum[i] += w
		}
		if d := s - chk.ColSum[j]; math.IsNaN(d) || math.Abs(d) > chk.Tol {
			v.Cols = append(v.Cols, j)
			v.Col, v.Delta = j, d
		}
	}
	for i, s := range rowSum {
		if d := s - chk.RowSum[i]; math.IsNaN(d) || math.Abs(d) > chk.Tol {
			v.Rows = append(v.Rows, i)
			v.Row = i
		}
	}
	v.OK = len(v.Rows) == 0 && len(v.Cols) == 0
	v.Correctable = len(v.Rows) == 1 && len(v.Cols) == 1
	return v
}

// CorrectSingle repairs the single localized element of a Correctable
// verdict in place by subtracting the observed checksum error. The caller
// should re-Verify afterwards: when the corrupted magnitude dwarfs the
// checksum's precision (a high exponent-bit flip), the subtraction cannot
// restore the element exactly and the tile must be recomputed instead.
func CorrectSingle(c *matrix.Dense, v Verdict) {
	if !v.Correctable {
		panic("abft: CorrectSingle on a non-correctable verdict")
	}
	c.Set(v.Row, v.Col, c.At(v.Row, v.Col)-v.Delta)
}

// Outcome classifies a detected corruption against the codec's guarantees.
type Outcome int

const (
	// Recompute: a single data-element fault — detected, localized, and
	// repaired by re-executing only the affected task.
	Recompute Outcome = iota
	// Escalate: the checksum row/column itself was hit, or more than one
	// element flipped — detected but not localizable, so recovery falls
	// back to the checkpoint restore of the enclosing iteration.
	Escalate
)

func (o Outcome) String() string {
	if o == Recompute {
		return "recompute"
	}
	return "escalate"
}

// Classify maps a modeled corruption (how many elements flipped, and
// whether any landed in the checksum row/column) to its recovery outcome.
// The virtual-scale pipeline uses this for strikes drawn by the fault
// injector; the real-data path reaches the same decision through Verify.
func Classify(faults int, inChecksum bool) Outcome {
	if faults <= 1 && !inChecksum {
		return Recompute
	}
	return Escalate
}

// HostVerifyGFLOPS is the effective host rate of the checksum arithmetic:
// GEMV-shaped streaming passes, memory-bound, well below the packed DGEMM
// rate of the compute cores.
const HostVerifyGFLOPS = 8.0

// VerifyFlops is the arithmetic cost of encoding and verifying one m x n
// DGEMM task with inner dimension k: the two input checksum passes
// (2k(m+n)), the output row/column sums (2mn), and the comparisons.
func VerifyFlops(m, n, k int) float64 {
	return 2*float64(k)*float64(m+n) + 2*float64(m)*float64(n) + 2*float64(m+n)
}

// VerifySeconds is the virtual-time cost of verifying one task at the host
// checksum rate. For the paper's trailing-update tasks (m = n = 8192,
// k = 1216) this is ~2-3% of the kernel time — the honest overhead the SDC
// sweep reports.
func VerifySeconds(m, n, k int) float64 {
	return VerifyFlops(m, n, k) / (HostVerifyGFLOPS * 1e9)
}

// FlipBit returns v with the given bit of its IEEE-754 representation
// flipped (bit 63 = sign, 62..52 = exponent, 51..0 = mantissa). The SDC
// injectors flip high exponent bits so the corruption is always far above
// any checksum tolerance — a flip that lands below the tolerance is
// numerically indistinguishable from rounding and harmless by definition.
func FlipBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << bit))
}
