package cluster

import (
	"fmt"
	"math"
	"slices"

	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/grid"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/perfmodel"
	rcv "tianhe/internal/recover"
	"tianhe/internal/sim"
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
	el     *element.Element
	runner *hybrid.Runner

	// The block-column ownership table: colOwner[bj] is the process column
	// that owns global block-column bj, the augmented one last. It starts
	// cyclic; only the recovery layer's shrink remaps it (P = 1). liveCols
	// are the process columns still running, ascending, and ranks the
	// grid's live ranks, ascending. lcol[bj] is the local column offset of
	// block-column bj, or where it would sit: a rank stores its owned
	// columns in ascending global order, so lcol[nColBlocks] is the local
	// width.
	colOwner []int
	liveCols []int
	ranks    []int
	lcol     []int
	// colGroup is my process column's ranks in process-row order, rowGroup
	// my process row's live ranks in liveCols order, so a process column's
	// index in liveCols is its index in the group.
	colGroup, rowGroup []int

	// rec is the recovery layer (heartbeat, parity, shrink and rebuild) of
	// an elastic solve; nil on a plain grid.
	rec *elasticState

	// Send-side scratch, refilled at every step: mpi.Send copies, so what a
	// rank sends from its own storage needs no fresh buffer. A root packs
	// its panel and U12 into storage taken from the world instead, since it
	// keeps viewing them through the updates, and hands them back with the
	// receivers' copies: on a 1 x Q grid every rank is a root, and the
	// payloads the others released serve it instead of pack buffers of its
	// own.
	pivot, seg []float64
	lpiv       []int // one panel's pivots as local rows, for applyTrailingSwaps

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
	xs, _, end := solveGrid(cfg, b, nil)
	return finishSolve(cfg.N, cfg.Seed, b, xs, end)
}

// solveGrid runs the 2D loop on every rank of a fresh P x Q world and
// returns each rank's solution, its state and the makespan. A non-nil ec
// switches the recovery layer on (SolveElastic, P = 1): only ec.StartLive
// run, over ec.StartOwners, and a rank that dies or stops on an error
// returns no solution.
func solveGrid(cfg Dist2DConfig, b []float64, ec *ElasticConfig) ([][]float64, []*state2d, sim.Time) {
	world := mpi.NewWorld(mpi.Config{Size: cfg.P * cfg.Q})
	xs := make([][]float64, world.Size())
	states := make([]*state2d, world.Size())
	end := world.Run(func(c *mpi.Comm) {
		if ec != nil && !slices.Contains(ec.StartLive, c.Rank()) {
			return // not part of this (pre-shrunk) run
		}
		st := newState2d(c, cfg, b, ec)
		states[c.Rank()] = st
		if st.factor() {
			xs[c.Rank()] = st.backSolve()
		}
	})
	return xs, states, end
}

// newState2d sets up one rank: it generates the blocks of A it owns and
// takes its rows of b into the augmented column. The ownership table is
// cyclic unless ec (an elastic solve) names its own.
func newState2d(c *mpi.Comm, cfg Dist2DConfig, b []float64, ec *ElasticConfig) *state2d {
	g := grid.New(cfg.P, cfg.Q)
	p, q := g.Coords(c.Rank())
	st := &state2d{
		comm: c, cfg: cfg, g: g, p: p, q: q,
		nRowBlocks: cfg.N / cfg.NB,
		nColBlocks: cfg.N/cfg.NB + 1,
		lpiv:       make([]int, cfg.NB),
	}
	st.liveCols = rcv.NewMembership(cfg.Q).Live
	st.colOwner = rcv.Cyclic(st.nColBlocks, st.liveCols).Owners
	if ec != nil {
		st.liveCols, st.colOwner = ec.StartLive, ec.StartOwners
		st.rec = &elasticState{cfg: *ec}
		st.rec.refreshStripes(st.colOwner, st.liveCols)
	}
	st.layout()
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
	st.el, st.runner = el, hybrid.New(el, cfg.Variant, part)

	// Fill the owned blocks of the augmented matrix [A | b 0...].
	st.local = matrix.NewDense(grid.CyclicBlocks(st.nRowBlocks, p, cfg.P)*cfg.NB, st.lcol[st.nColBlocks])
	for bj, pc := range st.colOwner {
		if pc == q {
			st.fillColumn(st.local.View(0, st.lcol[bj], st.local.Rows, cfg.NB), bj, b)
		}
	}
	return st
}

// fillColumn generates this rank's rows of block-column bj into dst: the
// test matrix's blocks, or for the augmented block-column b in its first
// column and zeros in the rest.
func (st *state2d) fillColumn(dst *matrix.Dense, bj int, b []float64) {
	nb := st.cfg.NB
	for bi := st.p; bi < st.nRowBlocks; bi += st.cfg.P {
		blk := dst.View(st.localRow(bi*nb), 0, nb, nb)
		if bj < st.nRowBlocks {
			hpl.FillMatrix(blk, st.cfg.N, st.cfg.Seed, bi*nb, bj*nb)
			continue
		}
		blk.Zero()
		copy(blk.Col(0), b[bi*nb:])
	}
}

// layout derives the local column offsets and the groups of live ranks
// from the ownership table and the live process columns.
func (st *state2d) layout() {
	st.lcol = make([]int, st.nColBlocks+1)
	for bj, pc := range st.colOwner {
		st.lcol[bj+1] = st.lcol[bj]
		if pc == st.q {
			st.lcol[bj+1] += st.cfg.NB
		}
	}
	st.ranks, st.colGroup, st.rowGroup = st.ranks[:0], st.colGroup[:0], st.rowGroup[:0]
	for p := 0; p < st.cfg.P; p++ {
		st.colGroup = append(st.colGroup, st.g.Rank(p, st.q))
		for _, q := range st.liveCols {
			st.ranks = append(st.ranks, st.g.Rank(p, q))
			if p == st.p {
				st.rowGroup = append(st.rowGroup, st.g.Rank(p, q))
			}
		}
	}
}

// localRow maps a global row this rank's process row owns to local storage.
func (st *state2d) localRow(gr int) int {
	return grid.CyclicLocalIndex(gr/st.cfg.NB, st.cfg.P)*st.cfg.NB + gr%st.cfg.NB
}

// rowOwner returns the process row that owns global row gr.
func (st *state2d) rowOwner(gr int) int { return grid.CyclicOwner(gr/st.cfg.NB, st.cfg.P) }

// ownsRow reports whether this rank's process row owns global row gr.
func (st *state2d) ownsRow(gr int) bool { return st.rowOwner(gr) == st.p }

// firstLocalRowAtOrAbove returns the first local row whose global row is
// >= gr (local rows are ascending in global row).
func (st *state2d) firstLocalRowAtOrAbove(gr int) int {
	below := grid.CyclicBlocks(gr/st.cfg.NB, st.p, st.cfg.P) * st.cfg.NB
	if st.ownsRow(gr) {
		return below + gr%st.cfg.NB
	}
	return below
}

// panel2d is one rank's copy of a broadcast panel: the pivots and the
// piece, which views buf, the payload it arrived in (a root's own pack).
type panel2d struct {
	buf   []float64
	piece *matrix.Dense
	ipiv  []int
}

// factor runs the 2D right-looking panel loop, optionally with depth-1
// look-ahead. It reports whether this rank finished the factorization: under
// the recovery layer a rank may die on schedule or stop on an error.
func (st *state2d) factor() bool {
	nb := st.cfg.NB
	// With look-ahead, panel k was factored and broadcast during iteration
	// k-1 and is carried here.
	var cur panel2d
	for k := 0; k < st.nRowBlocks; k++ {
		if st.rec != nil && !st.boundary(k) {
			return false
		}
		pcol := st.colOwner[k]
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
			nextCol := st.colOwner[k+1]
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

		// Panel k and U12 are spent: every rank hands its copy back.
		st.comm.Release(cur.buf)
		if u12 != nil {
			st.comm.Release(u12.Data)
		}
		if st.rec != nil {
			st.endIteration(k, cur.ipiv)
		}
		cur = next
	}
	return true
}

// panelFactor runs the collaborative unblocked factorization of panel k
// across the process column; returns the global pivot rows.
func (st *state2d) panelFactor(k int) []int {
	nb := st.cfg.NB
	row0 := k * nb
	lc := st.lcol[k]
	ipiv := make([]int, nb)
	group := st.colGroup
	myIdx := st.p
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
			advance(st.comm, 2*float64(rows)*float64(nb-j), perfmodel.HostRank1GFLOPS)
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
// the process rows; every rank returns its copy of the panel.
func (st *state2d) panelBcast(k, pcol int, ipiv []int) panel2d {
	nb := st.cfg.NB
	row0 := k * nb
	start := st.firstLocalRowAtOrAbove(row0)
	pieceRows := st.local.Rows - start
	group := st.rowGroup

	var payload []float64
	if st.q == pcol {
		payload = packPanel(st.comm.Take(nb+pieceRows*nb), ipiv, st.local.View(start, st.lcol[k], pieceRows, nb))
	}
	payload = st.comm.GroupBcast(group, slices.Index(st.liveCols, pcol), tag2dPanelBcast, payload)
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
	c0 := st.lcol[k+1] // the first local column right of block-column k
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
	c0 := st.lcol[k+1] // the first local column right of block-column k
	cols := st.local.Cols - c0
	group := st.colGroup

	var payload []float64
	if st.p == prow && cols > 0 {
		// My piece's first nb rows are exactly the diagonal block.
		l11 := piece.View(0, 0, nb, nb)
		u12 := st.local.View(st.localRow(row0), c0, nb, cols)
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
		advance(st.comm, float64(nb)*float64(nb)*float64(cols), perfmodel.HostTrsmGFLOPS)
		payload = st.comm.Take(nb * cols)
		for j := 0; j < cols; j++ {
			copy(payload[j*nb:], u12.Col(j))
		}
	}
	if cols == 0 {
		return nil
	}
	// The payload is this rank's own (taken or received, released once the
	// updates are done), so U12 views it.
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
	c0 := st.lcol[k+1] // the first local column right of block-column k
	cols := st.local.Cols - c0
	if u12 == nil || colOff >= cols {
		return
	}
	if count < 0 || colOff+count > cols {
		count = cols - colOff
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
	qb := st.colOwner[st.nRowBlocks] // owner column of the augmented block
	var y []float64                  // my rows of the augmented column, on its owners
	if st.q == qb {
		y = st.local.Col(st.lcol[st.nRowBlocks])
	}
	x := make([]float64, n)

	for k := st.nRowBlocks - 1; k >= 0; k-- {
		prow := grid.CyclicOwner(k, st.cfg.P)
		pcol := st.colOwner[k]
		row0 := k * nb
		diag := st.g.Rank(prow, pcol)
		yHolder := st.g.Rank(prow, qb)

		// Move y_k to the diagonal owner, solve, and broadcast x_k.
		var xk []float64
		if st.comm.Rank() == yHolder {
			lr := st.localRow(row0)
			yk := slices.Clone(y[lr : lr+nb])
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
			ukk := st.local.View(st.localRow(row0), st.lcol[k], nb, nb)
			blas.Dtrsv(blas.Upper, blas.NoTrans, blas.NonUnit, ukk, xk)
			advance(st.comm, float64(nb)*float64(nb), perfmodel.HostBackSolveGFLOPS)
		}
		xk = st.comm.GroupBcast(st.ranks, slices.Index(st.ranks, diag), tag2dSolveX, xk)
		copy(x[row0:row0+nb], xk)

		// Eliminate block column k from the rows above: the column owners
		// compute their deltas and ship them to the y holders in their
		// process row.
		rowsAbove := st.firstLocalRowAtOrAbove(row0)
		var delta []float64
		switch {
		case rowsAbove == 0:
		case st.q == pcol:
			delta = make([]float64, rowsAbove)
			blas.Dgemv(blas.NoTrans, 1, st.local.View(0, st.lcol[k], rowsAbove, nb), xk, 0, delta)
			advance(st.comm, 2*float64(rowsAbove)*float64(nb), perfmodel.HostBackSolveGFLOPS)
			if st.q != qb {
				st.comm.Send(st.g.Rank(st.p, qb), tag2dSolveDelta, delta)
				delta = nil
			}
		case st.q == qb:
			delta = st.comm.Recv(st.g.Rank(st.p, pcol), tag2dSolveDelta)
		}
		for i, d := range delta {
			y[i] -= d
		}
	}
	return x
}
