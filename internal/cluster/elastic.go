package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/perfmodel"
	rcv "tianhe/internal/recover"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

// Elastic distributed LU: the real small-scale twin of the paper's
// full-machine runs that survives element death mid-factorization without a
// global restart. It is the 2D solver's loop on a 1 x Ranks grid with a
// recovery layer switched on: the grid's ownership table maps each global
// block-column (the augmented right-hand side's last) to an element, cyclic
// until a death reshuffles it. The BLAS accumulation-order contract makes a
// column's bits independent of which element computes it and of what else
// that element holds, which is the property the whole recovery story leans
// on: a run that loses an element mid-way produces factors byte-identical
// to a run distributed over the survivors from the start.
//
// Redundancy is RAID-style XOR parity over factored columns (see
// internal/recover): when column k's panel is factored, its owner ships the
// final column to the stripe's parity holder, which folds it in — one
// column of traffic per iteration, about the panel broadcast again, so
// steady-state encoding stays cheap. The 2D loop never swaps a factored
// column again, so a parity block always equals the XOR of its members.
// Trailing (not yet factored) columns, the right-hand side among them,
// carry no parity; a dead element's trailing columns are rebuilt by
// deterministic replay from the survivors' factored prefix.
//
// At every iteration boundary each rank first honours its own failure
// schedule (fault.ElementFail semantics: the victim's clock stops and
// mpi.Die registers the death), then the survivors run the recover.Heartbeat
// failure detector — virtual-clock suspicion, bounded by mpi.SuspicionBound,
// doubling as a barrier. On a non-empty verdict every survivor derives the
// identical recover.MakePlan locally, ships the surviving factored prefix
// and the needed parity blocks, and each adopter reconstructs its adopted
// columns through a taskgraph rebuild codelet — XOR folds, regeneration,
// replay — scheduled on its element like any other work. Parity is then
// re-encoded under the shrunk layout and the loop resumes forward. No
// rollback: no survivor recomputes anything.

// The rebuild graph's own codelets: XOR folds and regeneration each stream 8
// bytes per flop of work at the host's memory rate. Replay takes hpl's LU
// codelets.
var (
	rebuildXOR = &taskgraph.Codelet{Name: "rebuild.xor", CPUSeconds: rebuildMemSeconds}
	rebuildGen = &taskgraph.Codelet{Name: "rebuild.gen", CPUSeconds: rebuildMemSeconds}
)

func rebuildMemSeconds(t *taskgraph.Task, _ int) float64 {
	return 8 * t.Flops / (perfmodel.HostMemGBps * 1e9)
}

// Tags for the recovery layer's communication phases, clear of the 2D
// loop's (+k%8 rotation within each 16-wide band).
const (
	tagEParity = 1000 + iota*16
	tagEPing
	tagEVerdict
	tagEFactored
	tagEParityShip
	tagEMaxLoc
)

// FailureSpec schedules one element death: original rank Rank dies at the
// first iteration boundary where its virtual clock has reached At.
type FailureSpec struct {
	Rank int
	At   sim.Time
}

// ElasticConfig describes an elastic distributed solve.
type ElasticConfig struct {
	N, NB int
	Ranks int // original world size
	Seed  uint64
	// Failures is the element-death schedule, usually derived from a
	// fault.Injector's ElementFailures. Each failure must leave at least
	// two survivors (the parity quorum floor).
	Failures []FailureSpec
	// StartLive/StartOwners start the run already shrunk — the reference
	// configuration for the bit-identity acceptance. StartOwners names the
	// owner of each of the N/NB+1 block-columns, the right-hand side's
	// last (a run's FinalOwners). Nil defaults to all Ranks live with the
	// cyclic layout.
	StartLive   []int
	StartOwners []int
	// DisableParity turns off checksum encoding (heartbeats stay on): the
	// healthy baseline the steady-state encoding overhead is measured
	// against. A run with failures cannot disable parity.
	DisableParity bool
}

// ElasticResult reports an elastic solve.
type ElasticResult struct {
	X        []float64
	Residual float64
	Passed   bool
	Seconds  sim.Time
	GFLOPS   float64

	Epochs      int   // completed shrinks
	Failed      []int // ranks lost, in failure order
	FinalLive   []int
	FinalOwners []int
	// RecoverySeconds is the per-epoch recovery stall: the maximum over
	// survivors of (clock after rebuild - clock at the failure boundary),
	// agreed via a group max so every rank reports the same value.
	RecoverySeconds []float64
	// ParityBytes counts checksum traffic (steady-state encoding plus
	// recovery shipping).
	ParityBytes int64
	// Factors is the gathered N x N factored matrix, L\U as the 2D loop
	// leaves it: each block-column of L in the row order of its own panel,
	// since later iterations' row swaps only reach the trailing columns.
	// Pivots is the per-iteration pivot history, each relative to its
	// panel's first row. Both are the byte-identity witnesses.
	Factors *matrix.Dense
	Pivots  [][]int
}

// ParityExceededError reports deaths at one iteration boundary that took a
// factored column together with its stripe's parity holder or another of
// its members: more erasures than the XOR code's strength of one, like
// RAID-5 under a double disk death. Every survivor derives the same plan,
// so all of them stop at that boundary.
type ParityExceededError struct {
	Failed []int // ranks lost at the boundary
	Iter   int   // the boundary: columns below it are factored
	Col    int   // the first factored column parity cannot rebuild
}

func (e *ParityExceededError) Error() string {
	return fmt.Sprintf("cluster: factored column %d lost beyond parity strength at iteration %d (simultaneous failures %v share a stripe)", e.Col, e.Iter, e.Failed)
}

// errPeerRebuild stops the survivors whose own rebuild succeeded when
// another survivor's failed.
var errPeerRebuild = errors.New("cluster: another survivor's rebuild failed")

// elasticState is the recovery layer one rank of an elastic solve carries
// on top of the 2D loop.
type elasticState struct {
	cfg     ElasticConfig
	epoch   int
	stripes []rcv.Stripe
	parity  [][]float64 // by stripe index: N*NB parity block (col-major), nil where not held
	pivots  [][]int     // per iteration, relative to the panel's first row

	parityBytes int64
	recovery    []float64
	failed      []int
	err         error // why this rank stopped, if it did
}

// SolveElastic runs the elastic distributed factor-and-solve: the 2D loop on
// a 1 x Ranks grid of ACMLG+both elements, without look-ahead, with the
// recovery layer on. Everything computes for real; all times are virtual;
// the whole run is bit-exact from the seed at any -par.
func SolveElastic(cfg ElasticConfig) (ElasticResult, error) {
	if err := checkShape(cfg.N, cfg.NB); err != nil {
		return ElasticResult{}, err
	}
	if cfg.Ranks <= 0 {
		return ElasticResult{}, fmt.Errorf("cluster: need at least one rank")
	}
	if cfg.StartLive == nil {
		cfg.StartLive = rcv.NewMembership(cfg.Ranks).Live
	}
	ncols := cfg.N/cfg.NB + 1
	if cfg.StartOwners == nil {
		cfg.StartOwners = rcv.Cyclic(ncols, cfg.StartLive).Owners
	}
	for i, r := range cfg.StartLive {
		if r < 0 || r >= cfg.Ranks || (i > 0 && r <= cfg.StartLive[i-1]) {
			return ElasticResult{}, fmt.Errorf("cluster: live ranks %v are not ascending ranks below %d", cfg.StartLive, cfg.Ranks)
		}
	}
	if len(cfg.StartOwners) != ncols {
		return ElasticResult{}, fmt.Errorf("cluster: %d block-column owners for %d block-columns", len(cfg.StartOwners), ncols)
	}
	for _, o := range cfg.StartOwners {
		if !slices.Contains(cfg.StartLive, o) {
			return ElasticResult{}, fmt.Errorf("cluster: block-column owner %d is not among the live ranks %v", o, cfg.StartLive)
		}
	}
	if len(cfg.Failures) > 0 {
		if cfg.DisableParity {
			return ElasticResult{}, fmt.Errorf("cluster: cannot disable parity on a run with failures")
		}
		if len(cfg.StartLive)-len(cfg.Failures) < 2 {
			return ElasticResult{}, fmt.Errorf("cluster: %d failures would leave fewer than 2 of %d elements (parity quorum floor)", len(cfg.Failures), len(cfg.StartLive))
		}
	}
	b := hpl.RHS(cfg.N, cfg.Seed)
	xs, states, end := solveGrid(Dist2DConfig{N: cfg.N, NB: cfg.NB, P: 1, Q: cfg.Ranks, Seed: cfg.Seed, Variant: element.ACMLGBoth}, b, &cfg)

	// Any survivor's view is authoritative; take the lowest. The quorum
	// floor leaves one unless the survivors stopped on an error.
	var root *state2d
	var parityBytes int64
	var err error
	for _, st := range states {
		if st == nil {
			continue
		}
		parityBytes += st.rec.parityBytes
		if e := st.rec.err; e != nil && (err == nil || errors.Is(err, errPeerRebuild)) {
			err = e
		}
		if root == nil && xs[st.comm.Rank()] != nil {
			root = st
		}
	}
	if err != nil {
		return ElasticResult{}, err
	}
	d, err := finishSolve(cfg.N, cfg.Seed, b, xs, end)
	r := root.rec
	return ElasticResult{
		X: d.X, Residual: d.Residual, Passed: d.Passed, Seconds: end, GFLOPS: d.GFLOPS,
		Epochs: r.epoch, Failed: r.failed, FinalLive: root.liveCols, FinalOwners: root.colOwner,
		RecoverySeconds: r.recovery, ParityBytes: parityBytes,
		Factors: gatherFactors(states, root), Pivots: r.pivots,
	}, err
}

// refreshStripes recomputes the parity striping for an (owners, live)
// mapping and starts an empty parity set for it. Existing parity content is
// the caller's business — on membership change the re-encode rebuilds it
// from the factored prefix.
func (r *elasticState) refreshStripes(owners, live []int) {
	r.stripes = nil
	if !r.cfg.DisableParity {
		r.stripes = rcv.Stripes(owners, live)
	}
	r.parity = make([][]float64, len(r.stripes))
}

// boundary runs the recovery layer at the top of iteration k: a rank whose
// death is due dies, then the survivors' heartbeat agrees on who failed and,
// on a verdict, they shrink and rebuild. It reports whether this rank goes
// on with iteration k.
func (st *state2d) boundary(k int) bool {
	me := st.comm.Rank()
	// The victim never sends this round's heartbeat, which is exactly how
	// the survivors find out.
	for _, f := range st.rec.cfg.Failures {
		if f.Rank == me && st.comm.Now() >= f.At {
			st.comm.Die()
			return false
		}
	}
	if failed := rcv.Heartbeat(st.comm, st.ranks, tagEPing, tagEVerdict); len(failed) > 0 {
		st.rec.err = st.recoverFrom(failed, k)
	}
	return st.rec.err == nil
}

// endIteration keeps iteration k's pivots (this rank's unpacked copy, spent
// by the loop), made relative to the panel, and folds column k, now final,
// into its stripe's parity block: the owner ships the column to the
// holder, the holder XORs it in.
func (st *state2d) endIteration(k int, ipiv []int) {
	r := st.rec
	for j := range ipiv {
		ipiv[j] -= k * st.cfg.NB
	}
	r.pivots = append(r.pivots, ipiv)

	s := rcv.StripeOf(r.stripes, k)
	if s == nil {
		return
	}
	me, owner := st.comm.Rank(), st.colOwner[k]
	switch {
	case owner == me && s.Holder != me:
		st.comm.Send(s.Holder, tagEParity+k%8, st.blockCol(k))
		r.parityBytes += int64(8 * st.cfg.N * st.cfg.NB)
	case s.Holder == me && owner != me:
		col := st.comm.Recv(owner, tagEParity+k%8)
		rcv.XORInto(st.parityBlock(s.Index), col)
		st.comm.Release(col)
		advance(st.comm, float64(8*st.cfg.N*st.cfg.NB), perfmodel.HostMemGBps) // XOR fold at memory rate
	}
}

// blockCol returns owned block-column bj's storage: on a 1 x Q grid each is
// one contiguous N x NB column-major block.
func (st *state2d) blockCol(bj int) []float64 {
	n := st.cfg.N
	return st.local.Data[st.lcol[bj]*n : (st.lcol[bj]+st.cfg.NB)*n]
}

// parityBlock returns this rank's parity block of a stripe, taken from the
// world and zeroed on first use.
func (st *state2d) parityBlock(stripe int) []float64 {
	r := st.rec
	if r.parity[stripe] == nil {
		r.parity[stripe] = st.comm.Take(st.cfg.N * st.cfg.NB)
		clear(r.parity[stripe])
	}
	return r.parity[stripe]
}

// recoverFrom is the elastic shrink at iteration boundary k: agree on the
// plan, ship the surviving factored prefix and the needed parity blocks,
// adopt the shrunk layout, rebuild adopted columns through the taskgraph
// rebuild codelet, re-encode parity under the shrunk layout, and resume
// forward.
func (st *state2d) recoverFrom(failed []int, k int) error {
	r := st.rec
	t0 := st.comm.Now()
	n, nb := st.cfg.N, st.cfg.NB
	me := st.comm.Rank()
	plan := rcv.MakePlan(rcv.Membership{World: st.cfg.Q, Epoch: r.epoch, Live: st.liveCols}, rcv.Layout{Owners: st.colOwner}, failed, k)
	for _, rb := range plan.Rebuilds {
		// A factored column marked for replay is beyond the parity code's
		// strength: the loop keeps no history to replay it from.
		if rb.Col < k && rb.Source == rcv.FromReplay {
			return &ParityExceededError{Failed: plan.Failed, Iter: k, Col: rb.Col}
		}
	}
	live := plan.Members.Live

	// Phase 1: every surviving factored column goes to every survivor (the
	// replay inputs and the parity members in one sweep; at this scale
	// simplicity beats the point-to-point schedule the big-N model books).
	oldOwners := st.colOwner
	factored := make([][]float64, k)
	for i := range factored {
		o := oldOwners[i]
		if !slices.Contains(live, o) {
			continue // lost column, rebuilt below
		}
		var payload []float64
		if o == me {
			payload = st.blockCol(i)
		}
		factored[i] = st.comm.GroupBcast(live, slices.Index(live, o), tagEFactored+i%8, payload)
	}
	// Phase 2: parity blocks of stripes that lost a factored member go to
	// every survivor too, so each can XOR locally and treat the rebuilt
	// column as just another factored input.
	parityIn := make(map[int][]float64)
	for _, rb := range plan.Rebuilds {
		if rb.Source != rcv.FromParity {
			continue
		}
		s := r.stripes[rb.Stripe]
		var payload []float64
		if s.Holder == me {
			payload = r.parity[s.Index]
			r.parityBytes += int64(8 * n * nb)
		}
		parityIn[rb.Stripe] = st.comm.GroupBcast(live, slices.Index(live, s.Holder), tagEParityShip+rb.Col%8, payload)
	}

	// Phase 3: adopt the shrunk layout, then rebuild the adopted columns
	// into it through the rebuild codelet graph — scheduled on this element
	// like any other work.
	st.adopt(plan)
	err := st.runRebuildGraph(plan, factored, parityIn)
	delta := math.Inf(1) // a failed rebuild stops every survivor at the agreement below
	if err == nil {
		// Each parity payload is now its stripe's rebuilt column. A
		// holder's payload is its own parity block, so that block leaves
		// the parity set before the old blocks are released.
		for stripe := range parityIn {
			if s := r.stripes[stripe]; s.Holder == me {
				r.parity[s.Index] = nil
			}
		}
		for _, p := range r.parity {
			if p != nil {
				st.comm.Release(p) // the old striping's blocks are spent
			}
		}
		r.epoch = plan.Members.Epoch
		r.failed = append(r.failed, plan.Failed...)
		r.refreshStripes(st.colOwner, st.liveCols)
		// Every survivor holds the full factored prefix right now, so
		// holders re-fold locally; steady-state encoding resumes
		// incrementally.
		var folded int
		for _, s := range r.stripes {
			if s.Holder != me {
				continue
			}
			for _, c := range s.Cols {
				if c < k {
					rcv.XORInto(st.parityBlock(s.Index), factored[c])
					folded++
				}
			}
		}
		advance(st.comm, float64(folded)*float64(8*n*nb), perfmodel.HostMemGBps)
		// The received prefix and the XOR-rebuilt columns are spent; this
		// rank's own columns are in its local storage.
		for i, col := range factored {
			if col != nil && oldOwners[i] != me {
				st.comm.Release(col)
			}
		}
		delta = float64(st.comm.Now() - t0)
	}

	// Agree on the epoch's recovery stall (group max), so every survivor
	// reports the same measurement.
	agreed, _ := st.comm.GroupMaxLoc(live, tagEMaxLoc, delta)
	switch {
	case err != nil:
		return err
	case math.IsInf(agreed, 1):
		return errPeerRebuild
	}
	r.recovery = append(r.recovery, agreed)
	return nil
}

// adopt switches to the plan's shrunk membership and layout. A rank that
// adopts columns re-lays out its storage so its owned columns stay in
// ascending global order; the adopted ones are left for the rebuild.
func (st *state2d) adopt(plan rcv.Plan) {
	old, oldCol := st.local, st.lcol
	st.liveCols, st.colOwner = plan.Members.Live, plan.Owners.Owners
	st.layout()
	me := st.comm.Rank()
	if !slices.ContainsFunc(plan.Adoptions, func(a rcv.Adoption) bool { return a.To == me }) {
		return
	}
	n, nb := st.cfg.N, st.cfg.NB
	st.local = matrix.NewDense(n, st.lcol[st.nColBlocks])
	for bj, o := range st.colOwner {
		if o == me && oldCol[bj+1] > oldCol[bj] {
			st.local.View(0, st.lcol[bj], n, nb).CopyFrom(old.View(0, oldCol[bj], n, nb))
		}
	}
}

// runRebuildGraph executes this rank's share of the rebuild plan as a task
// graph on its compute element: an XOR fold for every parity-recovered
// column, and regeneration then per-iteration replay for each trailing
// column it adopted. Placement and booking go through the same scheduler as
// production work; bodies do the real arithmetic.
func (st *state2d) runRebuildGraph(plan rcv.Plan, factored [][]float64, parityIn map[int][]float64) error {
	n, nb, k := st.cfg.N, st.cfg.NB, plan.Iter
	me := st.comm.Rank()
	g, lu := taskgraph.New(), hpl.NewLUCodelets(st.el)
	colBytes := int64(8 * n * nb)
	colH := make([]*taskgraph.Handle, st.nColBlocks)
	handle := func(b int) *taskgraph.Handle {
		if colH[b] == nil {
			colH[b] = g.NewHandle(fmt.Sprintf("col%03d", b), colBytes)
		}
		return colH[b]
	}
	adopted := func(rb rcv.Rebuild) *matrix.Dense {
		if rb.Adopter != me {
			return nil
		}
		return st.local.View(0, st.lcol[rb.Col], n, nb)
	}
	for _, rb := range plan.Rebuilds {
		dst := adopted(rb)
		if rb.Source == rcv.FromParity {
			// Every survivor XOR-folds every parity rebuild: the adopter
			// stores the column, replay adopters read it as a panel, and
			// the new striping's holders fold it into the re-encoded
			// parity. A stripe's members have distinct owners and a
			// rebuild from parity needs every other factored member alive
			// (recover.MakePlan), so each stripe loses one column at most
			// and its payload has exactly one reader: this task, which
			// folds the members into the payload itself.
			s := st.rec.stripes[rb.Stripe]
			members := 0
			for _, c := range s.Cols {
				if c != rb.Col && c < k {
					members++
				}
			}
			g.Add(taskgraph.Task{
				Name:    fmt.Sprintf("xor%03d", rb.Col),
				Codelet: rebuildXOR,
				Flops:   float64(members+1) * float64(n*nb),
				Run: func() {
					acc := parityIn[rb.Stripe]
					for _, c := range s.Cols {
						if c != rb.Col && c < k {
							rcv.XORInto(acc, factored[c])
						}
					}
					factored[rb.Col] = acc
					if dst != nil {
						dst.CopyFrom(matrix.FromColMajor(n, nb, n, acc))
					}
				},
			}, taskgraph.Access{H: handle(rb.Col), Mode: taskgraph.Write})
			continue
		}
		if dst == nil {
			continue
		}
		// Replay chain: regenerate (the right-hand side from hpl.RHS),
		// then apply iterations 0..k-1 as the live loop does, each as a
		// prep (the panel's swaps, then the U12 solve) and a column update.
		// Panel i is rows i*NB and down of factored column i as it was
		// broadcast (the 2D loop never swaps it again), so by the BLAS
		// accumulation-order contract these equal, bit for bit, what the
		// live loop's whole-block calls computed for this column.
		g.Add(taskgraph.Task{
			Name:    fmt.Sprintf("gen%03d", rb.Col),
			Codelet: rebuildGen,
			Flops:   float64(n * nb),
			Run: func() {
				var b []float64
				if rb.Col == st.nRowBlocks {
					b = hpl.RHS(n, st.cfg.Seed)
				}
				st.fillColumn(dst, rb.Col, b)
			},
		}, taskgraph.Access{H: handle(rb.Col), Mode: taskgraph.Write})
		for i := 0; i < k; i++ {
			row0, m := i*nb, n-i*nb
			panel := func() *matrix.Dense { return matrix.FromColMajor(m, nb, n, factored[i][row0:]) }
			u12 := dst.View(row0, 0, nb, nb)
			accs := []taskgraph.Access{{H: handle(rb.Col), Mode: taskgraph.ReadWrite}, {H: handle(i), Mode: taskgraph.Read}}
			g.Add(taskgraph.Task{
				Name:     fmt.Sprintf("prep%03d.%03d", rb.Col, i),
				Codelet:  lu.Trsm,
				Flops:    float64(nb) * float64(nb) * float64(nb),
				Shape:    [3]int{nb, nb, nb},
				Priority: 1,
				Run: func() {
					blas.Dlaswp(dst.View(row0, 0, m, nb), st.rec.pivots[i], 0, nb)
					blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, panel().View(0, 0, nb, nb), u12)
				},
			}, accs...)
			if m == nb {
				continue
			}
			g.Add(taskgraph.Task{
				Name:     fmt.Sprintf("upd%03d.%03d", rb.Col, i),
				Codelet:  lu.Gemm,
				Flops:    2 * float64(m-nb) * float64(nb) * float64(nb),
				Shape:    [3]int{m - nb, nb, nb},
				Rows:     m - nb,
				Priority: 1,
				Run: func() {
					blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, panel().View(nb, 0, m-nb, nb), u12, 1, dst.View(row0+nb, 0, m-nb, nb))
				},
			}, accs...)
		}
	}
	if g.Len() == 0 {
		return nil
	}
	rep, err := taskgraph.NewScheduler(st.el, taskgraph.Options{RateSeeds: hpl.GraphRateSeeds(st.el, nb)}).Run(g, st.comm.Now())
	if err != nil {
		return fmt.Errorf("cluster: rank %d rebuild graph: %w", me, err)
	}
	st.comm.Sync(rep.End)
	return nil
}

// gatherFactors assembles the global factored matrix — the byte-identity
// witness — from the survivors' storage once the world has run, as
// finishSolve reads every rank's solution, so it books no virtual time.
func gatherFactors(states []*state2d, root *state2d) *matrix.Dense {
	n, nb := root.cfg.N, root.cfg.NB
	f := matrix.NewDense(n, n)
	for bj, o := range root.colOwner[:root.nRowBlocks] {
		copy(f.Data[bj*nb*n:], states[o].blockCol(bj))
	}
	return f
}
