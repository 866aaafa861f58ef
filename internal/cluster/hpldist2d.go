package cluster

import (
	"fmt"
	"math"

	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/grid"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/perfmodel"
)

// Dist2DConfig describes a real distributed solve on a P x Q block-cyclic
// grid — the layout HPL itself uses (the paper's full machine ran 64 x 80).
// Global block (bi, bj) lives on rank (bi mod P, bj mod Q). The right-hand
// side rides along as an augmented block column, so pivoting and the
// trailing updates eliminate it with no special-casing; only the distributed
// triangular backsolve remains afterwards. N must be a multiple of NB.
type Dist2DConfig struct {
	N, NB int
	P, Q  int
	Seed  uint64
	// Variant selects each rank's compute-element configuration.
	Variant element.Variant
	// GPUMem and GPUTexture shrink the per-rank device for test problems.
	GPUMem     int64
	GPUTexture int
	// Lookahead enables depth-1 look-ahead: the owners of the next panel's
	// column update that block column first and factor the next panel while
	// everyone else runs the bulk of the current trailing update, hiding the
	// panel factorization and its broadcast off the critical path.
	Lookahead bool
}

// Message tags of the 2D solver's phases. Messages are FIFO per
// (source, tag), and every phase is ordered by data dependencies, so one tag
// per message kind suffices.
const (
	tag2dMaxLoc = 100 + iota*4
	tag2dPivotRow
	tag2dSwapPanel
	tag2dPanelBcast
	tag2dSwapTrail
	tag2dU12
	tag2dSolveY
	tag2dSolveX
	tag2dSolveDelta
)

// state2d is one rank's working set for the 2D solver.
type state2d struct {
	comm   *mpi.Comm
	cfg    Dist2DConfig
	g      grid.Grid
	p, q   int
	local  *matrix.Dense // localRows x localCols, augmented layout
	runner *hybrid.Runner

	// Send-side scratch, refilled at every step: mpi.Send copies, so what a
	// rank sends from its own storage needs no fresh buffer. A root keeps
	// viewing its packed panel and U12 through the updates, and under
	// look-ahead panel k+1 is packed while panel k is still in use, so the
	// pack buffers alternate by parity of k.
	pack            [2][]float64
	u12, pivot, seg []float64
	lpiv            []int // one panel's pivots as local rows, for applyTrailingSwaps

	nRowBlocks int // N/NB
	nColBlocks int // N/NB + 1 (augmented)
}

// SolveDistributed2D factors and solves a dense system on a P x Q grid with
// real arithmetic and virtual timing, verifying the residual at the end.
func SolveDistributed2D(cfg Dist2DConfig) (DistResult, error) {
	if err := checkShape(cfg.N, cfg.NB); err != nil {
		return DistResult{}, err
	}
	if cfg.P <= 0 || cfg.Q <= 0 {
		return DistResult{}, fmt.Errorf("cluster: invalid %dx%d grid", cfg.P, cfg.Q)
	}
	b := hpl.RHS(cfg.N, cfg.Seed)

	world := mpi.NewWorld(mpi.Config{Size: cfg.P * cfg.Q})
	results := make([][]float64, world.Size())
	end := world.Run(func(c *mpi.Comm) {
		st := newState2d(c, cfg, b)
		st.factor()
		results[c.Rank()] = st.backSolve()
	})
	return finishSolve(cfg.N, cfg.Seed, b, results, end)
}

// newState2d sets up one rank: it generates the blocks of A it owns and
// takes its rows of b into the augmented column.
func newState2d(c *mpi.Comm, cfg Dist2DConfig, b []float64) *state2d {
	g := grid.New(cfg.P, cfg.Q)
	p, q := g.Coords(c.Rank())
	st := &state2d{
		comm: c, cfg: cfg, g: g, p: p, q: q,
		nRowBlocks: cfg.N / cfg.NB,
		nColBlocks: cfg.N/cfg.NB + 1,
		lpiv:       make([]int, cfg.NB),
	}
	el := element.New(element.Config{
		Seed:        cfg.Seed + uint64(c.Rank())*977,
		JitterSigma: -1,
		GPUMem:      cfg.GPUMem,
		GPUTexture:  cfg.GPUTexture,
	})
	var part adaptive.Partitioner
	if cfg.Variant.Adaptive() {
		part = adaptive.NewAdaptive(32, hpl.LinpackFlops(cfg.N), el.InitialGSplit(), el.CPU.NumCores())
	}
	st.runner = hybrid.New(el, cfg.Variant, part)

	// Fill the owned blocks of the augmented matrix [A | b 0...].
	st.local = matrix.NewDense(st.localRows(), st.localCols())
	nb := cfg.NB
	for bi := p; bi < st.nRowBlocks; bi += cfg.P {
		for bj := q; bj < st.nColBlocks; bj += cfg.Q {
			dst := st.local.View(st.localRow(bi*nb), st.localColOfBlock(bj), nb, nb)
			if bj < st.nRowBlocks { // regular block of A
				hpl.FillMatrix(dst, cfg.N, cfg.Seed, bi*nb, bj*nb)
				continue
			}
			// Augmented block: first column carries b, the rest stay zero.
			copy(dst.Col(0), b[bi*nb:])
		}
	}
	return st
}

func (st *state2d) localRows() int {
	return grid.CyclicBlocks(st.nRowBlocks, st.p, st.cfg.P) * st.cfg.NB
}

func (st *state2d) localCols() int {
	return grid.CyclicBlocks(st.nColBlocks, st.q, st.cfg.Q) * st.cfg.NB
}

// localRow maps a global row this rank's process row owns to local storage.
func (st *state2d) localRow(gr int) int {
	return grid.CyclicLocalIndex(gr/st.cfg.NB, st.cfg.P)*st.cfg.NB + gr%st.cfg.NB
}

// rowOwner returns the process row that owns global row gr.
func (st *state2d) rowOwner(gr int) int { return grid.CyclicOwner(gr/st.cfg.NB, st.cfg.P) }

// ownsRow reports whether this rank's process row owns global row gr.
func (st *state2d) ownsRow(gr int) bool { return st.rowOwner(gr) == st.p }

// localColOfBlock maps a global column block this rank owns to its local
// column offset.
func (st *state2d) localColOfBlock(bj int) int {
	return grid.CyclicLocalIndex(bj, st.cfg.Q) * st.cfg.NB
}

// firstLocalRowAtOrAbove returns the first local row whose global row is
// >= gr (local rows are ascending in global row).
func (st *state2d) firstLocalRowAtOrAbove(gr int) int {
	below := grid.CyclicBlocks(gr/st.cfg.NB, st.p, st.cfg.P) * st.cfg.NB
	if st.ownsRow(gr) {
		return below + gr%st.cfg.NB
	}
	return below
}

// firstLocalColOfTrailing returns the first local column with global block
// index > k.
func (st *state2d) firstLocalColOfTrailing(k int) int {
	return grid.CyclicBlocks(k+1, st.q, st.cfg.Q) * st.cfg.NB
}

func (st *state2d) colGroup(pcol int) []int {
	out := make([]int, st.cfg.P)
	for p := 0; p < st.cfg.P; p++ {
		out[p] = st.g.Rank(p, pcol)
	}
	return out
}

func (st *state2d) rowGroup(prow int) []int {
	out := make([]int, st.cfg.Q)
	for q := 0; q < st.cfg.Q; q++ {
		out[q] = st.g.Rank(prow, q)
	}
	return out
}

// panel2d is one rank's copy of a broadcast panel: the pivots and the
// piece, which views buf, the payload it arrived in (a root's own pack
// buffer).
type panel2d struct {
	buf   []float64
	piece *matrix.Dense
	ipiv  []int
}

// factor runs the 2D right-looking panel loop, optionally with depth-1
// look-ahead.
func (st *state2d) factor() {
	nb := st.cfg.NB
	// With look-ahead, panel k was factored and broadcast during iteration
	// k-1 and is carried here.
	var cur panel2d
	for k := 0; k < st.nRowBlocks; k++ {
		pcol := grid.CyclicOwner(k, st.cfg.Q)
		prow := grid.CyclicOwner(k, st.cfg.P)
		row0 := k * nb

		if cur.piece == nil {
			var ipiv []int
			if st.q == pcol {
				ipiv = st.panelFactor(k)
			}
			// Broadcast pivots plus the panel piece along each process row:
			// the receiving ranks need the L rows matching their local rows.
			cur = st.panelBcast(k, pcol, ipiv)
		}

		// Apply the row interchanges to the trailing columns (the augmented
		// rhs column included).
		st.applyTrailingSwaps(k, row0, cur.ipiv)

		// U12 on the diagonal process row, then broadcast it down columns.
		u12 := st.computeAndBcastU12(k, prow, cur.piece)

		var next panel2d
		if st.cfg.Lookahead && k+1 < st.nRowBlocks {
			// Look-ahead: the next panel's owner column updates just that
			// block column, factors panel k+1 and launches its broadcast —
			// all while the other ranks chew on the bulk update.
			nextCol := grid.CyclicOwner(k+1, st.cfg.Q)
			if st.q == nextCol {
				st.updateRange(k, prow, cur.piece, u12, 0, nb)
				next = st.panelBcast(k+1, nextCol, st.panelFactor(k+1))
				st.updateRange(k, prow, cur.piece, u12, nb, -1)
			} else {
				st.updateRange(k, prow, cur.piece, u12, 0, -1)
				next = st.panelBcast(k+1, nextCol, nil)
			}
		} else {
			// Trailing update through the hybrid element.
			st.updateRange(k, prow, cur.piece, u12, 0, -1)
		}

		// Panel k and U12 are spent: receivers hand their payloads back,
		// roots keep their scratch.
		if st.q != pcol {
			st.comm.Release(cur.buf)
		}
		if u12 != nil && st.p != prow {
			st.comm.Release(u12.Data)
		}
		cur = next
	}
}

// panelFactor runs the collaborative unblocked factorization of panel k
// across the process column; returns the global pivot rows.
func (st *state2d) panelFactor(k int) []int {
	nb := st.cfg.NB
	row0 := k * nb
	lc := st.localColOfBlock(k)
	group := st.colGroup(st.q)
	myIdx := st.p
	ipiv := make([]int, nb)
	// Local row lr of the panel is panelRow(lr), its column jj at jj*ld.
	ld := st.local.Stride
	panelRow := func(lr int) []float64 { return st.local.Data[lc*ld+lr:] }

	for j := 0; j < nb; j++ {
		gr0 := row0 + j
		// Local pivot candidate among my rows at or below gr0.
		bestVal, bestGR := -1.0, -1
		start := st.firstLocalRowAtOrAbove(gr0)
		for i, v := range st.local.Col(lc + j)[start:] {
			if v = math.Abs(v); v > bestVal {
				bestVal = v
				bestGR = st.globalRowOfLocal(start + i)
			}
		}
		_, widx := st.comm.GroupMaxLoc(group, tag2dMaxLoc, bestVal)

		// The winner publishes the pivot's global row and its panel row.
		var payload []float64
		if myIdx == widx {
			st.pivot = reuse(st.pivot, 1+nb)
			payload = st.pivot
			payload[0] = float64(bestGR)
			row := panelRow(st.localRow(bestGR))
			for jj := range nb {
				payload[1+jj] = row[jj*ld]
			}
		}
		payload = st.comm.GroupBcast(group, widx, tag2dPivotRow, payload)
		gp := int(payload[0])
		pivRow := payload[1:]
		ipiv[j] = gp

		// Swap rows gr0 <-> gp within the panel block.
		if gp != gr0 {
			ownR1, ownGP := st.ownsRow(gr0), st.ownsRow(gp)
			switch {
			case ownR1 && ownGP:
				r1, rp := panelRow(st.localRow(gr0)), panelRow(st.localRow(gp))
				for jj := range nb {
					r1[jj*ld], rp[jj*ld] = rp[jj*ld], r1[jj*ld]
				}
			case ownR1:
				// Ship my r1 row to gp's owner; overwrite r1 with the pivot
				// row (already in hand from the broadcast).
				r1 := panelRow(st.localRow(gr0))
				st.seg = reuse(st.seg, nb)
				seg := st.seg
				for jj := range seg {
					seg[jj] = r1[jj*ld]
				}
				st.comm.Send(group[st.rowOwner(gp)], tag2dSwapPanel, seg)
				for jj, v := range pivRow[:nb] {
					r1[jj*ld] = v
				}
			case ownGP:
				seg := st.comm.Recv(group[st.rowOwner(gr0)], tag2dSwapPanel)
				rp := panelRow(st.localRow(gp))
				for jj, v := range seg[:nb] {
					rp[jj*ld] = v
				}
				st.comm.Release(seg)
			}
		}

		// Scale and rank-1 update on my rows strictly below gr0.
		pivot := pivRow[j]
		below := st.firstLocalRowAtOrAbove(gr0 + 1)
		rows := st.local.Rows - below
		if rows > 0 && pivot != 0 {
			colj := st.local.View(below, lc+j, rows, 1)
			blas.Dscal(1/pivot, colj.Col(0))
			if j < nb-1 {
				trail := st.local.View(below, lc+j+1, rows, nb-j-1)
				blas.Dger(-1, colj.Col(0), pivRow[j+1:], trail)
			}
			advance(st.comm, 2*float64(rows)*float64(nb-j), 10)
		}
		if myIdx != widx {
			st.comm.Release(payload)
		}
	}
	return ipiv
}

func (st *state2d) globalRowOfLocal(lr int) int {
	lb := lr / st.cfg.NB
	return (lb*st.cfg.P+st.p)*st.cfg.NB + lr%st.cfg.NB
}

// panelBcast distributes the pivots and each process row's panel piece along
// the process rows; every rank returns its copy of the panel. The root packs
// into its pack buffer of k's parity.
func (st *state2d) panelBcast(k, pcol int, ipiv []int) panel2d {
	nb := st.cfg.NB
	row0 := k * nb
	start := st.firstLocalRowAtOrAbove(row0)
	pieceRows := st.local.Rows - start
	group := st.rowGroup(st.p)

	var payload []float64
	if st.q == pcol {
		st.pack[k&1] = packPanel(st.pack[k&1], ipiv, st.local.View(start, st.localColOfBlock(k), pieceRows, nb))
		payload = st.pack[k&1]
	}
	payload = st.comm.GroupBcast(group, pcol, tag2dPanelBcast, payload)
	piece, ipiv := unpackPanel(payload, pieceRows, nb)
	return panel2d{buf: payload, piece: piece, ipiv: ipiv}
}

// applyTrailingSwaps mirrors the panel's row interchanges on the columns
// right of the panel (the augmented rhs included), in pivot order. Only the
// diagonal process row holds the panel's rows, so only it swaps rows within
// its own storage: each maximal run of pivots whose target row it holds too
// takes one pass per column (blas.Dlaswp's loop order), and a pivot whose
// target lives in another process row is a row exchange with that row,
// between the runs. Every other process row only answers the exchanges that
// reach its rows.
func (st *state2d) applyTrailingSwaps(k, row0 int, ipiv []int) {
	c0 := st.firstLocalColOfTrailing(k)
	cols := st.local.Cols - c0
	if cols <= 0 {
		// Peers with zero columns are skipped symmetrically: both sides
		// compute each other's column count.
		return
	}
	prow := st.rowOwner(row0)
	if st.p != prow {
		for _, gp := range ipiv {
			if st.ownsRow(gp) {
				st.exchangeRow(gp, prow, c0, cols)
			}
		}
		return
	}
	// The view starts at the panel's first row, so pivot j swaps its row j
	// with the local row of ipiv[j], counted from there.
	lr0 := st.localRow(row0)
	trail := st.local.View(lr0, c0, st.local.Rows-lr0, cols)
	run := 0
	for j, gp := range ipiv {
		if st.ownsRow(gp) {
			st.lpiv[j] = st.localRow(gp) - lr0
			continue
		}
		blas.Dlaswp(trail, st.lpiv, run, j)
		st.exchangeRow(row0+j, st.rowOwner(gp), c0, cols)
		run = j + 1
	}
	blas.Dlaswp(trail, st.lpiv, run, len(ipiv))
}

// exchangeRow swaps my local row (global myRow) with the corresponding row
// held by the peer process row, across my trailing columns.
func (st *state2d) exchangeRow(myRow, peerP, c0, cols int) {
	ld := st.local.Stride
	row := st.local.Data[c0*ld+st.localRow(myRow):] // element j is row[j*ld]
	st.seg = reuse(st.seg, cols)
	seg := st.seg
	for j := range seg {
		seg[j] = row[j*ld]
	}
	peer := st.g.Rank(peerP, st.q)
	got := st.comm.SendRecv(peer, tag2dSwapTrail, tag2dSwapTrail, seg)
	for j, v := range got[:cols] {
		row[j*ld] = v
	}
	st.comm.Release(got)
}

// computeAndBcastU12 solves L11 * U12 = A12 on the diagonal process row and
// broadcasts each column-strip of U12 down its process column.
func (st *state2d) computeAndBcastU12(k, prow int, piece *matrix.Dense) *matrix.Dense {
	nb := st.cfg.NB
	row0 := k * nb
	c0 := st.firstLocalColOfTrailing(k)
	cols := st.local.Cols - c0
	group := st.colGroup(st.q)

	var payload []float64
	if st.p == prow && cols > 0 {
		// My piece's first nb rows are exactly the diagonal block.
		l11 := piece.View(0, 0, nb, nb)
		u12 := st.local.View(st.localRow(row0), c0, nb, cols)
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
		advance(st.comm, float64(nb)*float64(nb)*float64(cols), perfmodel.HostTrsmGFLOPS)
		st.u12 = reuse(st.u12, nb*cols)
		payload = st.u12
		for j := 0; j < cols; j++ {
			copy(payload[j*nb:], u12.Col(j))
		}
	}
	if cols == 0 {
		return nil
	}
	// The payload is this rank's own (its scratch, or a received copy it
	// releases once the updates are done), so U12 views it.
	return matrix.FromColMajor(nb, cols, nb, st.comm.GroupBcast(group, prow, tag2dU12, payload))
}

// updateRange applies the trailing update A22 -= L21 * U12 to a column
// sub-range of the local trailing block: colOff is the offset (in columns)
// within this rank's trailing region and count the width, with -1 meaning
// "to the end". Look-ahead uses it to update the next panel's block column
// ahead of the rest.
func (st *state2d) updateRange(k, prow int, piece *matrix.Dense, u12 *matrix.Dense, colOff, count int) {
	nb := st.cfg.NB
	row0 := k * nb
	c0 := st.firstLocalColOfTrailing(k)
	cols := st.local.Cols - c0
	if u12 == nil {
		return
	}
	if count < 0 {
		count = cols - colOff
	}
	if colOff >= cols {
		return
	}
	if colOff+count > cols {
		count = cols - colOff
	}
	if count <= 0 {
		return
	}
	// L21: the piece minus the diagonal block when my process row owns it.
	skip := 0
	if st.p == prow {
		skip = nb
	}
	if piece.Rows-skip <= 0 {
		return
	}
	l21 := piece.View(skip, 0, piece.Rows-skip, nb)
	r0 := st.firstLocalRowAtOrAbove(row0 + nb)
	a22 := st.local.View(r0, c0+colOff, st.local.Rows-r0, count)
	if a22.Rows != l21.Rows {
		panic(fmt.Sprintf("cluster: 2D update row mismatch %d vs %d", a22.Rows, l21.Rows))
	}
	u12part := u12.View(0, colOff, nb, count)
	rep := st.runner.Gemm(-1, l21, u12part, 1, a22, st.comm.Now())
	st.comm.Sync(rep.End)
}

// backSolve finishes U*x = y on the distributed factors; y sits in the
// augmented column. Every rank returns the full solution.
func (st *state2d) backSolve() []float64 {
	nb := st.cfg.NB
	n := st.cfg.N
	qb := grid.CyclicOwner(st.nRowBlocks, st.cfg.Q) // owner column of the augmented block
	lcB := -1
	if st.q == qb {
		lcB = st.localColOfBlock(st.nRowBlocks)
	}
	x := make([]float64, n)

	for k := st.nRowBlocks - 1; k >= 0; k-- {
		prow := grid.CyclicOwner(k, st.cfg.P)
		pcol := grid.CyclicOwner(k, st.cfg.Q)
		row0 := k * nb
		diag := st.g.Rank(prow, pcol)
		yHolder := st.g.Rank(prow, qb)

		// Move y_k to the diagonal owner, solve, and broadcast x_k.
		var xk []float64
		if st.comm.Rank() == yHolder {
			yk := make([]float64, nb)
			lr := st.localRow(row0)
			for i := 0; i < nb; i++ {
				yk[i] = st.local.At(lr+i, lcB)
			}
			if yHolder != diag {
				st.comm.Send(diag, tag2dSolveY, yk)
			} else {
				xk = yk
			}
		}
		if st.comm.Rank() == diag {
			if xk == nil {
				xk = st.comm.Recv(yHolder, tag2dSolveY)
			}
			ukk := st.local.View(st.localRow(row0), st.localColOfBlock(k), nb, nb)
			blas.Dtrsv(blas.Upper, blas.NoTrans, blas.NonUnit, ukk, xk)
			advance(st.comm, float64(nb)*float64(nb), 4)
		}
		xk = st.comm.Bcast(diag, tag2dSolveX, xk)
		copy(x[row0:row0+nb], xk)

		// Eliminate block column k from the rows above: the column owners
		// compute their deltas and ship them to the y holders in their
		// process row.
		rowsAbove := st.firstLocalRowAtOrAbove(row0)
		if st.q == pcol && rowsAbove > 0 {
			uTop := st.local.View(0, st.localColOfBlock(k), rowsAbove, nb)
			delta := make([]float64, rowsAbove)
			blas.Dgemv(blas.NoTrans, 1, uTop, xk, 0, delta)
			advance(st.comm, 2*float64(rowsAbove)*float64(nb), 4)
			if st.q == qb {
				for i := 0; i < rowsAbove; i++ {
					st.local.Set(i, lcB, st.local.At(i, lcB)-delta[i])
				}
			} else {
				st.comm.Send(st.g.Rank(st.p, qb), tag2dSolveDelta, delta)
			}
		} else if st.q == qb && pcol != qb && rowsAbove > 0 {
			delta := st.comm.Recv(st.g.Rank(st.p, pcol), tag2dSolveDelta)
			for i := 0; i < rowsAbove; i++ {
				st.local.Set(i, lcB, st.local.At(i, lcB)-delta[i])
			}
		}
	}
	return x
}
