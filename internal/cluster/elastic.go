package cluster

import (
	"fmt"
	"sort"

	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/perfmodel"
	rcv "tianhe/internal/recover"
	"tianhe/internal/sim"
	"tianhe/internal/taskgraph"
)

// Elastic distributed LU: the real small-scale twin of the paper's
// full-machine runs that survives element death mid-factorization without a
// global restart. It is the one solver with a layout of its own rather than a
// grid of SolveDistributed2D: an ownership table maps each global
// block-column to an element (column block-cyclic until a death reshuffles
// it), the right-hand side is replicated, each block-column is stored
// separately and every trailing update runs per block-column. That makes the
// arithmetic of any column independent of which element computes it — the
// property the whole recovery story leans on: a run that loses an element
// mid-way produces factors byte-identical to a run distributed over the
// survivors from the start. A grid cannot offer it: its ranks update their
// whole local trailing block at once, so a column's DGEMM shapes, and with
// them its bits, depend on what else its owner holds.
//
// Redundancy is RAID-style XOR parity over factored columns (see
// internal/recover): when column k's panel is factored, its owner ships the
// final column to the stripe's parity holder, which folds it in — one
// column of traffic per iteration, about the panel broadcast again, so
// steady-state encoding stays cheap. Pivot swaps from later iterations hit
// every factored column identically, and the holders mirror them onto their
// parity blocks, so parity always equals the XOR of its members' current
// state. Trailing (not yet factored) columns carry no parity; a dead
// element's trailing columns are rebuilt by deterministic replay from the
// survivors' factored prefix.
//
// At every iteration boundary each rank first honours its own failure
// schedule (fault.ElementFail semantics: the victim's clock stops and
// mpi.Die registers the death), then the survivors run the recover.Heartbeat
// failure detector — virtual-clock suspicion, bounded by mpi.SuspicionBound,
// doubling as a barrier. On a non-empty verdict every survivor derives the
// identical recover.MakePlan locally, ships the surviving factored prefix
// and the needed parity blocks, and each adopter reconstructs its adopted
// columns through a taskgraph rebuild codelet — XOR folds, historical-panel
// unswapping, regeneration, replay — scheduled on its element like any
// other work. Parity is then re-encoded under the shrunk layout and the
// loop resumes forward. No rollback: no survivor recomputes anything.
const (
	elasticGemmRate = 52.0 // GFLOPS, per-column trailing update (hybrid aggregate)
	elasticMemGBps  = 8.0  // GB/s for generator reads and XOR folds
	elasticMemBps   = elasticMemGBps * 1e9
	replayCPURate   = 18e9 // flops/s for the rebuild codelet's CPU variant
	replayGPURate   = 80e9 // flops/s for the rebuild codelet's GPU variant
)

// Tags for the elastic solver's communication phases (fresh world, so the
// space is private; +k%8 rotation within each 16-wide band).
const (
	tagEPanel = 1000 + iota*16
	tagESolve
	tagEParity
	tagEPing
	tagEVerdict
	tagEFactored
	tagEParityShip
	tagEGather
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
	// configuration for the bit-identity acceptance. Nil defaults to all
	// Ranks live with the cyclic layout.
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
	// Factors is the gathered N x N factored matrix (L\U, pivoted rows) and
	// Pivots the per-iteration pivot history — the byte-identity witnesses.
	Factors *matrix.Dense
	Pivots  [][]int
}

// elasticRank is one surviving rank's working set.
type elasticRank struct {
	comm    *mpi.Comm
	el      *element.Element
	cfg     ElasticConfig
	nblocks int
	fullA   *matrix.Dense // shared, read-only

	cols    map[int]*matrix.Dense // owned global block-columns, N x NB
	bTilde  []float64
	pivots  [][]int
	live    []int
	owners  []int
	epoch   int
	stripes []rcv.Stripe
	parity  map[int][]float64 // stripe index -> N*NB parity block (col-major)

	parityBytes int64
	recovery    []float64
	failed      []int
	died        bool
}

// SolveElastic runs the elastic distributed factor-and-solve. Everything
// computes for real; all times are virtual; the whole run is bit-exact from
// the seed at any -par.
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
	nblocks := cfg.N / cfg.NB
	if cfg.StartOwners == nil {
		cfg.StartOwners = rcv.Cyclic(nblocks, cfg.StartLive).Owners
	}
	if len(cfg.Failures) > 0 {
		if cfg.DisableParity {
			return ElasticResult{}, fmt.Errorf("cluster: cannot disable parity on a run with failures")
		}
		if len(cfg.StartLive)-len(cfg.Failures) < 2 {
			return ElasticResult{}, fmt.Errorf("cluster: %d failures would leave fewer than 2 of %d elements (parity quorum floor)", len(cfg.Failures), len(cfg.StartLive))
		}
	}
	fullA, fullB := hpl.Generate(cfg.N, cfg.Seed)
	world := mpi.NewWorld(mpi.Config{Size: cfg.Ranks})
	ranks := make([]*elasticRank, cfg.Ranks)
	xs := make([][]float64, cfg.Ranks)
	factors := make([]*matrix.Dense, cfg.Ranks)

	end := world.Run(func(c *mpi.Comm) {
		if idx := indexOfRank(cfg.StartLive, c.Rank()); idx < 0 {
			return // not part of this (pre-shrunk) run
		}
		st := newElasticRank(c, cfg, nblocks, fullA, fullB)
		ranks[c.Rank()] = st
		if died := st.factorLoop(); died {
			return
		}
		st.gatherFactors(factors)
		xs[c.Rank()] = st.backSolve()
	})

	// Any survivor's view is authoritative; take the lowest.
	var root *elasticRank
	for _, st := range ranks {
		if st != nil && !st.died {
			root = st
			break
		}
	}
	if root == nil {
		return ElasticResult{}, fmt.Errorf("cluster: no survivors")
	}
	res := ElasticResult{
		Seconds:         end,
		Epochs:          root.epoch,
		Failed:          root.failed,
		FinalLive:       root.live,
		FinalOwners:     root.owners,
		RecoverySeconds: root.recovery,
		Factors:         factors[root.comm.Rank()],
		Pivots:          root.pivots,
	}
	for _, st := range ranks {
		if st != nil {
			res.ParityBytes += st.parityBytes
		}
	}
	// Only survivors reach the backsolve, so only they have an entry in xs.
	d, err := finishSolve(fullA, fullB, xs, end)
	res.X, res.Residual, res.Passed, res.GFLOPS = d.X, d.Residual, d.Passed, d.GFLOPS
	return res, err
}

func indexOfRank(live []int, r int) int {
	for i, x := range live {
		if x == r {
			return i
		}
	}
	return -1
}

func newElasticRank(c *mpi.Comm, cfg ElasticConfig, nblocks int, fullA *matrix.Dense, fullB []float64) *elasticRank {
	st := &elasticRank{
		comm:    c,
		el:      element.New(element.Config{Seed: cfg.Seed + uint64(c.Rank())*1000, JitterSigma: -1}),
		cfg:     cfg,
		nblocks: nblocks,
		fullA:   fullA,
		cols:    make(map[int]*matrix.Dense),
		bTilde:  append([]float64(nil), fullB...),
		live:    append([]int(nil), cfg.StartLive...),
		owners:  append([]int(nil), cfg.StartOwners...),
		parity:  make(map[int][]float64),
	}
	for b, o := range st.owners {
		if o == c.Rank() {
			col := matrix.NewDense(cfg.N, cfg.NB)
			col.CopyFrom(fullA.View(0, b*cfg.NB, cfg.N, cfg.NB))
			st.cols[b] = col
		}
	}
	st.refreshStripes()
	return st
}

// refreshStripes recomputes the parity striping for the current (owners,
// live) mapping. Existing parity content is the caller's business — on
// membership change the re-encode rebuilds it from the factored prefix.
func (st *elasticRank) refreshStripes() {
	if st.cfg.DisableParity {
		return
	}
	st.stripes = rcv.Stripes(st.owners, st.live)
}

// factorLoop is the elastic right-looking panel loop. Returns true if this
// rank died on schedule.
func (st *elasticRank) factorLoop() (died bool) {
	n, nb := st.cfg.N, st.cfg.NB
	me := st.comm.Rank()
	for k := 0; k < st.nblocks; k++ {
		// Iteration boundary: honour my own death schedule first — the
		// victim never sends this round's heartbeat, which is exactly how
		// the survivors find out.
		for _, f := range st.cfg.Failures {
			if f.Rank == me && st.comm.Now() >= f.At {
				st.died = true
				st.comm.Die()
				return true
			}
		}
		// Failure detection round (a barrier too). On a verdict, rebuild.
		if failed := rcv.Heartbeat(st.comm, st.live, tagEPing, tagEVerdict); len(failed) > 0 {
			st.recoverFrom(failed, k)
		}

		owner := st.owners[k]
		row0 := k * nb
		m := n - row0
		var buf []float64
		if owner == me {
			pv := st.cols[k].View(row0, 0, m, nb)
			ipiv := make([]int, nb)
			if err := hpl.PanelFactor(pv, ipiv); err != nil {
				panic(fmt.Sprintf("cluster: singular panel at block %d: %v", k, err))
			}
			advance(st.comm, float64(nb)*float64(nb)*(float64(m)+float64(nb)/3), perfmodel.HostPanelGFLOPS)
			buf = packPanel(ipiv, pv)
		}
		buf = st.comm.GroupBcast(st.live, indexOfRank(st.live, owner), tagEPanel+k%8, buf)
		panel, ipiv := unpackPanel(buf, m, nb)
		st.pivots = append(st.pivots, ipiv)

		// Pivot swaps: all owned columns except the in-place-factored
		// panel, the replicated rhs, and — the elastic twist — every parity
		// block this rank holds (a swap hits all of a stripe's members
		// identically, and XOR commutes with a permutation applied to every
		// operand).
		for i := 0; i < nb; i++ {
			gi, gp := row0+i, row0+ipiv[i]
			if gi == gp {
				continue
			}
			for b, col := range st.cols {
				if b == k && owner == me {
					continue
				}
				rcv.SwapRows(col.Data, n, gi, gp)
			}
			st.bTilde[gi], st.bTilde[gp] = st.bTilde[gp], st.bTilde[gi]
			for _, p := range st.parity {
				rcv.SwapRows(p, n, gi, gp)
			}
		}

		l11 := panel.View(0, 0, nb, nb)
		var l21 *matrix.Dense
		if m > nb {
			l21 = panel.View(nb, 0, m-nb, nb)
		}

		// Replicated rhs elimination.
		bPanel := st.bTilde[row0 : row0+nb]
		blas.Dtrsv(blas.Lower, blas.NoTrans, blas.Unit, l11, bPanel)
		if m > nb {
			blas.Dgemv(blas.NoTrans, -1, l21, bPanel, 1, st.bTilde[row0+nb:])
		}
		advance(st.comm, 2*float64(m)*float64(nb), 4)

		// Per-block-column trailing update: each owned column right of the
		// panel gets its own triangular solve and GEMM, so a column's bits
		// never depend on which element computes it or what else that
		// element owns.
		for _, b := range st.ownedAfter(k) {
			st.updateColumn(st.cols[b], panel, k)
		}

		// Column k is now final (modulo future row swaps, which the parity
		// holder mirrors): fold it into its stripe's parity block.
		if !st.cfg.DisableParity {
			st.encodeParity(k, owner)
		}
	}
	return false
}

// ownedAfter lists this rank's columns strictly right of block k, ascending
// (map iteration order must never leak into execution order).
func (st *elasticRank) ownedAfter(k int) []int {
	var out []int
	for b := range st.cols {
		if b > k {
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}

// updateColumn applies iteration k's triangular solve and trailing GEMM to
// one owned block-column and books both on the rank's clock.
func (st *elasticRank) updateColumn(col *matrix.Dense, panel *matrix.Dense, k int) {
	st.updateColumnAt(col, panel, k)
	nb := st.cfg.NB
	advance(st.comm, float64(nb)*float64(nb)*float64(nb), perfmodel.HostTrsmGFLOPS)
	if m := st.cfg.N - k*nb; m > nb {
		advance(st.comm, 2*float64(m-nb)*float64(nb)*float64(nb), elasticGemmRate)
	}
}

// encodeParity folds final column k into its stripe's parity block: the
// owner ships the column to the holder, the holder XORs it in.
func (st *elasticRank) encodeParity(k, owner int) {
	s := rcv.StripeOf(st.stripes, k)
	if s == nil {
		return
	}
	me := st.comm.Rank()
	n, nb := st.cfg.N, st.cfg.NB
	switch {
	case owner == me && s.Holder != me:
		st.comm.Send(s.Holder, tagEParity+k%8, st.cols[k].Data)
		st.parityBytes += int64(8 * n * nb)
	case s.Holder == me && owner != me:
		rcv.XORInto(st.parityBlock(s.Index), st.comm.Recv(owner, tagEParity+k%8))
		advance(st.comm, float64(8*n*nb), elasticMemGBps) // XOR fold at memory rate
	}
}

// parityBlock returns this rank's parity block of a stripe, zeroed on first
// use.
func (st *elasticRank) parityBlock(stripe int) []float64 {
	p, ok := st.parity[stripe]
	if !ok {
		p = make([]float64, st.cfg.N*st.cfg.NB)
		st.parity[stripe] = p
	}
	return p
}

// recoverFrom is the elastic shrink at iteration boundary k: agree on the
// plan, ship the surviving factored prefix and the needed parity blocks,
// rebuild adopted columns through the taskgraph rebuild codelet, re-encode
// parity under the shrunk layout, and resume forward.
func (st *elasticRank) recoverFrom(failed []int, k int) {
	t0 := st.comm.Now()
	n, nb := st.cfg.N, st.cfg.NB
	me := st.comm.Rank()
	plan := rcv.MakePlan(rcv.Membership{World: st.cfg.Ranks, Epoch: st.epoch, Live: st.live}, rcv.Layout{Owners: st.owners}, failed, k)
	newLive := plan.Members.Live

	// Phase 1: every surviving factored column goes to every survivor (the
	// replay inputs and the parity members in one sweep; at this scale
	// simplicity beats the point-to-point schedule the big-N model books).
	factored := make([][]float64, k)
	for i := 0; i < k; i++ {
		o := st.owners[i]
		if indexOfRank(newLive, o) < 0 {
			continue // lost column, rebuilt below
		}
		var payload []float64
		if o == me {
			payload = st.cols[i].Data
		}
		factored[i] = st.comm.GroupBcast(newLive, indexOfRank(newLive, o), tagEFactored+i%8, payload)
	}
	// Phase 2: parity blocks of stripes that lost a factored member go to
	// every survivor too, so adopters can XOR locally and replay adopters
	// can treat the rebuilt column as just another historical input.
	parityIn := make(map[int][]float64)
	for _, rb := range plan.Rebuilds {
		if rb.Source != rcv.FromParity {
			continue
		}
		s := st.stripes[rb.Stripe]
		var payload []float64
		if s.Holder == me {
			payload = st.parity[s.Index]
			st.parityBytes += int64(8 * n * nb)
		}
		parityIn[rb.Stripe] = st.comm.GroupBcast(newLive, indexOfRank(newLive, s.Holder), tagEParityShip+rb.Col%8, payload)
	}
	// Phase 3: local reconstruction through the rebuild codelet graph —
	// scheduled on this element like any other work.
	st.runRebuildGraph(plan, factored, parityIn)

	// Adopt the shrunk state and re-encode parity for the new striping.
	// Every survivor holds the full factored prefix right now, so holders
	// re-fold locally; steady-state encoding resumes incrementally.
	st.live = newLive
	st.owners = plan.Owners.Owners
	st.epoch = plan.Members.Epoch
	st.failed = append(st.failed, plan.Failed...)
	st.refreshStripes()
	st.parity = make(map[int][]float64)
	if !st.cfg.DisableParity {
		var folded int
		for _, s := range st.stripes {
			if s.Holder != me {
				continue
			}
			for _, c := range s.Cols {
				if c >= k {
					continue
				}
				rcv.XORInto(st.parityBlock(s.Index), factored[c])
				folded++
			}
		}
		advance(st.comm, float64(folded)*float64(8*n*nb), elasticMemGBps)
	}

	// Agree on the epoch's recovery stall (group max), so every survivor
	// reports the same measurement.
	delta := float64(st.comm.Now() - t0)
	agreed, _ := st.comm.GroupMaxLoc(st.live, tagEMaxLoc, delta)
	st.recovery = append(st.recovery, agreed)
}

// rebuildShare sorts the plan's rebuilds into the columns this rank adopts,
// the parity rebuilds every survivor folds, and whether any adopted column
// replays (and so needs the historical panels).
func (st *elasticRank) rebuildShare(plan rcv.Plan) (mine, xors []rcv.Rebuild, needHist bool) {
	me, k := st.comm.Rank(), plan.Iter
	for _, rb := range plan.Rebuilds {
		if rb.Adopter == me {
			mine = append(mine, rb)
			if rb.Source == rcv.FromReplay {
				needHist = true
			}
		}
		switch {
		case rb.Source == rcv.FromParity:
			// Every survivor XOR-folds every parity rebuild: the adopter
			// stores the column, replay adopters need it as historical
			// input, and the new striping's holders fold it into the
			// re-encoded parity. Cheap at this scale; the big-N model books
			// the sparser point-to-point schedule instead.
			xors = append(xors, rb)
		case rb.Col < k:
			// A factored column lost together with its stripe's holder (or
			// a second member) in one boundary exceeds the XOR code's
			// strength-1 erasure budget — exactly like RAID-5 under double
			// disk death. MakePlan degrades it to replay for the analytic
			// model; the real solver refuses rather than pretend.
			panic(fmt.Sprintf("cluster: factored column %d lost beyond parity strength (simultaneous failures %v share a stripe)", rb.Col, plan.Failed))
		}
	}
	return mine, xors, needHist
}

// runRebuildGraph executes this rank's share of the rebuild plan as a task
// graph on its compute element: XOR folds for parity-recovered columns,
// historical-panel unswapping, regeneration and per-iteration replay for
// trailing columns. Placement and booking go through the same scheduler as
// production work; bodies do the real arithmetic.
func (st *elasticRank) runRebuildGraph(plan rcv.Plan, factored [][]float64, parityIn map[int][]float64) {
	n, nb, k := st.cfg.N, st.cfg.NB, plan.Iter
	mine, xors, needHist := st.rebuildShare(plan)
	if len(xors) == 0 && len(mine) == 0 {
		return
	}

	g := taskgraph.New()
	colBytes := int64(8 * n * nb)
	colH := make(map[int]*taskgraph.Handle)
	handle := func(b int) *taskgraph.Handle {
		if _, ok := colH[b]; !ok {
			colH[b] = g.NewHandle(fmt.Sprintf("col%03d", b), colBytes)
		}
		return colH[b]
	}
	// XOR folds: parity block + surviving members -> the lost column.
	for _, rb := range xors {
		rb := rb
		s := st.stripes[rb.Stripe]
		accs := []taskgraph.Access{{H: handle(rb.Col), Mode: taskgraph.Write}}
		members := 0
		for _, c := range s.Cols {
			if c != rb.Col && c < k {
				members++
			}
		}
		g.Add(taskgraph.Task{
			Name:    fmt.Sprintf("xor%03d", rb.Col),
			Codelet: "rebuild.xor",
			Flops:   float64(members+1) * float64(n*nb),
			Costs: taskgraph.Costs{CPUSeconds: func(*taskgraph.Task) float64 {
				return float64(members+1) * float64(8*n*nb) / elasticMemBps
			}},
			Run: func() {
				acc := append([]float64(nil), parityIn[rb.Stripe]...)
				for _, c := range s.Cols {
					if c != rb.Col && c < k {
						rcv.XORInto(acc, factored[c])
					}
				}
				factored[rb.Col] = acc
			},
		}, accs...)
	}
	// Historical panels: undo later iterations' row swaps on each factored
	// column so replay sees the panel exactly as iteration i broadcast it.
	hist := make([]*matrix.Dense, k)
	if needHist {
		reads := []taskgraph.Access{}
		histH := g.NewHandle("hist", colBytes*int64(k))
		for _, rb := range xors {
			reads = append(reads, taskgraph.Access{H: handle(rb.Col), Mode: taskgraph.Read})
		}
		g.Add(taskgraph.Task{
			Name:    "hist",
			Codelet: "rebuild.hist",
			Flops:   float64(k) * float64(n*nb),
			Costs: taskgraph.Costs{CPUSeconds: func(*taskgraph.Task) float64 {
				return float64(k) * float64(8*n*nb) / elasticMemBps
			}},
			Run: func() {
				for i := 0; i < k; i++ {
					hist[i] = st.unswapPanel(factored[i], i, k)
				}
			},
		}, append(reads, taskgraph.Access{H: histH, Mode: taskgraph.Write})...)
		// Replay chains: regenerate, then apply iterations 0..k-1 with the
		// exact per-column call shapes of the live loop. The replay codelet's
		// cost is its work, whichever column and iteration.
		replayCosts := taskgraph.Costs{
			CPUSeconds: func(t *taskgraph.Task) float64 { return t.Flops / replayCPURate },
			GPUSeconds: func(t *taskgraph.Task) float64 { return t.Flops / replayGPURate },
		}
		for _, rb := range mine {
			if rb.Source != rcv.FromReplay {
				continue
			}
			rb := rb
			col := matrix.NewDense(n, nb)
			st.cols[rb.Col] = col
			g.Add(taskgraph.Task{
				Name:    fmt.Sprintf("gen%03d", rb.Col),
				Codelet: "rebuild.gen",
				Flops:   float64(n * nb),
				Costs: taskgraph.Costs{CPUSeconds: func(*taskgraph.Task) float64 {
					return float64(8*n*nb) / elasticMemBps
				}},
				Run: func() {
					col.CopyFrom(st.fullA.View(0, rb.Col*nb, n, nb))
				},
			}, taskgraph.Access{H: handle(rb.Col), Mode: taskgraph.Write})
			for i := 0; i < k; i++ {
				i := i
				m := n - i*nb
				g.Add(taskgraph.Task{
					Name:     fmt.Sprintf("rep%03d.%03d", rb.Col, i),
					Codelet:  "rebuild.replay",
					Flops:    2 * float64(m-nb) * float64(nb) * float64(nb),
					Shape:    [3]int{m - nb, nb, nb},
					Priority: 1,
					Costs:    replayCosts,
					Run: func() {
						st.replayIteration(col, hist[i], i)
					},
				},
					taskgraph.Access{H: handle(rb.Col), Mode: taskgraph.ReadWrite},
					taskgraph.Access{H: histH, Mode: taskgraph.Read})
			}
		}
	}
	sched := taskgraph.NewScheduler(st.el, taskgraph.Options{})
	rep, err := sched.Run(g, st.comm.Now())
	if err != nil {
		panic(fmt.Sprintf("cluster: rebuild graph: %v", err))
	}
	st.comm.Sync(rep.End)
	// Materialize parity-rebuilt columns this rank adopted.
	for _, rb := range mine {
		if rb.Source == rcv.FromParity {
			col := matrix.NewDense(n, nb)
			copy(col.Data, factored[rb.Col])
			st.cols[rb.Col] = col
		}
	}
}

// replayIteration applies iteration i to one regenerated trailing column:
// the pivot swaps, then the triangular solve and trailing GEMM, with the
// identical per-column call shapes updateColumn uses — which is why the
// replayed bits match what the dead element would have computed.
func (st *elasticRank) replayIteration(col *matrix.Dense, panel *matrix.Dense, i int) {
	n, nb := st.cfg.N, st.cfg.NB
	row0 := i * nb
	ipiv := st.pivots[i]
	for t := 0; t < nb; t++ {
		rcv.SwapRows(col.Data, n, row0+t, row0+ipiv[t])
	}
	st.updateColumnAt(col, panel, i)
}

// updateColumnAt is the arithmetic of updateColumn without the virtual-time
// booking — the rebuild graph books the replay cost through the scheduler
// instead. The live loop and the replay share these exact call shapes, which
// is what makes reconstruction bit-exact.
func (st *elasticRank) updateColumnAt(col *matrix.Dense, panel *matrix.Dense, k int) {
	n, nb := st.cfg.N, st.cfg.NB
	row0 := k * nb
	m := n - row0
	l11 := panel.View(0, 0, nb, nb)
	u12 := col.View(row0, 0, nb, nb)
	blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
	if m > nb {
		l21 := panel.View(nb, 0, m-nb, nb)
		a22 := col.View(row0+nb, 0, m-nb, nb)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, l21, u12, 1, a22)
	}
}

// unswapPanel reconstructs the panel iteration i broadcast: final column i
// with the row swaps of iterations i+1..k-1 undone, in reverse order.
func (st *elasticRank) unswapPanel(data []float64, i, k int) *matrix.Dense {
	n, nb := st.cfg.N, st.cfg.NB
	col := matrix.NewDense(n, nb)
	copy(col.Data, data)
	for j := k - 1; j > i; j-- {
		ipiv := st.pivots[j]
		for t := nb - 1; t >= 0; t-- {
			rcv.SwapRows(col.Data, n, j*nb+t, j*nb+ipiv[t])
		}
	}
	row0 := i * nb
	return col.View(row0, 0, n-row0, nb).Clone()
}

// gatherFactors ships every rank's columns to the lowest survivor, which
// assembles the global factored matrix — the byte-identity witness.
func (st *elasticRank) gatherFactors(out []*matrix.Dense) {
	n, nb := st.cfg.N, st.cfg.NB
	me := st.comm.Rank()
	root := st.live[0]
	if me == root {
		f := matrix.NewDense(n, n)
		for b := 0; b < st.nblocks; b++ {
			dst := f.View(0, b*nb, n, nb)
			if st.owners[b] == root {
				dst.CopyFrom(st.cols[b])
				continue
			}
			buf := st.comm.Recv(st.owners[b], tagEGather+b%8)
			dst.CopyFrom(matrix.FromColMajor(n, nb, n, buf))
		}
		out[me] = f
		return
	}
	for b := 0; b < st.nblocks; b++ {
		if st.owners[b] == me {
			st.comm.Send(root, tagEGather+b%8, st.cols[b].Data)
		}
	}
}

// backSolve finishes U*x = bTilde right to left over the surviving group.
func (st *elasticRank) backSolve() []float64 {
	n, nb := st.cfg.N, st.cfg.NB
	me := st.comm.Rank()
	x := make([]float64, n)
	for k := st.nblocks - 1; k >= 0; k-- {
		owner := st.owners[k]
		row0 := k * nb
		var payload []float64
		if owner == me {
			ujj := st.cols[k].View(row0, 0, nb, nb)
			xj := append([]float64(nil), st.bTilde[row0:row0+nb]...)
			blas.Dtrsv(blas.Upper, blas.NoTrans, blas.NonUnit, ujj, xj)
			delta := make([]float64, row0)
			if row0 > 0 {
				uTop := st.cols[k].View(0, 0, row0, nb)
				blas.Dgemv(blas.NoTrans, 1, uTop, xj, 0, delta)
			}
			advance(st.comm, 2*float64(row0)*float64(nb), 4)
			payload = append(xj, delta...)
			st.comm.GroupBcast(st.live, indexOfRank(st.live, owner), tagESolve+k%8, payload)
		} else {
			payload = st.comm.GroupBcast(st.live, indexOfRank(st.live, owner), tagESolve+k%8, nil)
		}
		copy(x[row0:row0+nb], payload[:nb])
		for i, d := range payload[nb:] {
			st.bTilde[i] -= d
		}
	}
	return x
}
