package taskgraph

import (
	"math"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

// never is the predicted finish of a variant that is not a candidate.
const never = 1e30

// candidates is the cost step's answer for one ready task: the predicted
// finish of each implementation variant (static model blended with the
// measured rate), and what the executor needs to book whichever is chosen.
type candidates struct {
	gpu, cpu, hyb sim.Time
	core          int        // the core the CPU body would finish first on
	gpuPlan       devicePlan // whole-task device plan
	hybPlan       devicePlan // device plan at hybRows
	hybRows       int        // device rows of the split; 0 when there is no hybrid candidate
	shares        []int      // host rows per core
}

// choose is the placement policy: earliest predicted finish, the hybrid body
// only when it strictly beats the whole-device one, the device on a tie with
// the host. It reads nothing but the candidates, so a different policy is a
// different function of the same value.
func (c *candidates) choose() Class {
	switch {
	case c.hybRows > 0 && c.hyb < c.gpu && c.hyb <= c.cpu:
		return ClassHyb
	case c.gpu <= c.cpu:
		return ClassGPU
	}
	return ClassCPU
}

// estimate predicts every placement candidate of t. Waiting time — queue,
// upload gate, busy cores — stays outside the learned rate: each estimate is
// an earliest start plus the blended duration.
func (r *run) estimate(t *Task, readyAt sim.Time, gpuOK bool) candidates {
	c := candidates{gpu: never, cpu: never, hyb: never, core: -1}
	rates := r.s.rates
	if gpuOK {
		c.gpuPlan = r.planDevice(t, 1, 1, false, readyAt)
		model := c.gpuPlan.boundBy(t.Costs.GPUSeconds(t))
		c.gpu = c.gpuPlan.start + rates.EstimateClass(t.Codelet, ClassGPU, t.Flops, model)
	}
	cpuOK := t.Costs.CPUSeconds != nil
	if cpuOK {
		est := rates.EstimateClass(t.Codelet, ClassCPU, t.Flops, t.Costs.CPUSeconds(t))
		for ci := range r.cores {
			if fin := r.coreFree(ci, readyAt) + est; fin < c.cpu {
				c.cpu, c.core = fin, ci
			}
		}
	}
	// The split body occupies the device queue and the host cores at once.
	// It is ineligible while the device is down (the CPU body is the
	// degradation path) and when the split rounds to a whole-device placement.
	if t.Hybrid != nil && gpuOK && cpuOK {
		r.estimateHybrid(t, readyAt, &c)
	}
	return c
}

// coreFree is when core ci could start work that is ready at readyAt.
func (r *run) coreFree(ci int, readyAt sim.Time) sim.Time {
	return max(readyAt, r.cores[ci].TL.Available())
}

// splitSizer is the scratch state of sizing one hybrid candidate; it lives
// in the run so sizing allocates nothing but the share vector it returns.
type splitSizer struct {
	t       *Task
	readyAt sim.Time
	usable  []bool    // cores that can join by the kernel's start
	nUsable int       // how many
	fr      []float64 // per-core share weights; zero for cores sitting out
	wsum    float64   // their sum
	caps    []int     // scratch: capacity probes of the bisection
	w       []float64 // scratch: capacities as share weights
}

// estimateHybrid sizes the split — device rows by the oracle, host rows
// across the cores that can join — and ranks it like the single-device
// candidates.
func (r *run) estimateHybrid(t *Task, readyAt sim.Time, c *candidates) {
	h := t.Hybrid
	m1 := int(math.Round(float64(h.Rows) * h.Split()))
	if m1 <= 0 || m1 >= h.Rows {
		return
	}
	z := &r.sizer
	z.t, z.readyAt = t, readyAt
	// Cores that cannot join by the kernel's start (busy with a panel or an
	// earlier slab) are dropped from the split and their rows handed back to
	// the device — a synchronized split that waited for every core would
	// serialize behind whatever the slowest core is doing. If no core is free
	// in time, fall back to the fully synchronized split.
	p := r.planDevice(t, m1, h.Rows, h.SplitReads, readyAt)
	planned := m1
	z.nUsable = 0
	for ci, core := range r.cores {
		z.usable[ci] = core.TL.Available() <= p.start
		if z.usable[ci] {
			z.nUsable++
		}
	}
	if z.nUsable == 0 {
		for ci := range z.usable {
			z.usable[ci] = true
		}
		z.nUsable = len(r.cores)
	}
	m2 := h.Rows - m1
	if z.nUsable < len(r.cores) {
		m2 = m2 * z.nUsable / len(r.cores)
		m1 = h.Rows - m2
	}
	if m2 <= 0 {
		return
	}
	var cs []float64
	if h.CSplits != nil {
		if cs = h.CSplits(); len(cs) != len(r.cores) {
			cs = nil
		}
	}
	z.wsum = 0
	for i := range z.fr {
		switch {
		case !z.usable[i]:
			z.fr[i] = 0
		case cs != nil:
			z.fr[i] = cs[i]
		default:
			z.fr[i] = 1
		}
		z.wsum += z.fr[i]
	}
	shares := element.AllocRows(m2, z.fr)
	if h.FillSkew {
		m1, shares = r.fillSkew(m1, shares)
	}

	// The candidate runs for the intrinsic parallel compute time — max of the
	// device half (compute- or bandwidth-bound) and the slowest core slab.
	// Folding per-resource queue skew into the measured rate would let one
	// congested wavefront poison the class forever.
	if m1 != planned {
		p = r.planDevice(t, m1, h.Rows, h.SplitReads, readyAt)
	}
	start := p.start
	intrinsic := p.boundBy(h.GPUSeconds(m1))
	for ci, rc := range shares {
		if rc == 0 {
			continue
		}
		d := h.CPUSeconds(rc)
		if h.FillSkew {
			// Skew-filled slabs start before the kernel and end at the join
			// by construction: measure them in the kernel-start frame, like
			// the observation, so the rank is the projected join and the head
			// start that overlaps earlier work is not double-charged.
			d += float64(r.coreFree(ci, readyAt) - p.start)
		} else {
			start = max(start, r.cores[ci].TL.Available())
		}
		intrinsic = max(intrinsic, d)
	}
	c.hyb = start + r.s.rates.EstimateClass(t.Codelet, ClassHyb, t.Flops, intrinsic)
	c.hybPlan, c.hybRows, c.shares = p, m1, shares
}

// fillSkew refines the split toward a synchronized join: each core's slab
// starts at max(data ready, core free) — usually before the kernel, which
// waits behind the queue and the upload gate — so each slab is sized to end
// exactly at the device half's projected join. It returns the refined device
// rows and host shares (rewritten in place).
func (r *run) fillSkew(m1 int, shares []int) (int, []int) {
	z := &r.sizer
	h := z.t.Hybrid
	m2 := h.Rows - m1
	// Two passes close the fixed point (the join barely moves once the
	// device share is near its final value).
	for pass := 0; pass < 2 && z.wsum > 0; pass++ {
		total, ok := r.capacity(m1, shares)
		if !ok {
			break
		}
		if total > h.Rows-1 {
			// The cores could swallow the whole task before the device half
			// finishes; keep one device row so the booking stays a genuine
			// split.
			scale := float64(h.Rows-1) / float64(total)
			total = 0
			for ci := range shares {
				shares[ci] = int(float64(shares[ci]) * scale)
				total += shares[ci]
			}
		}
		m2 = total
		m1 = h.Rows - m2
	}
	// The two-pass fixed point assumes the join moves slowly with the device
	// share. Transfer-dominated codelets (SplitReads stencils, where the
	// upload gate scales with the share) violate that: the map overshoots and
	// oscillates between a starved and a saturated device half. capacity
	// re-derives the rows the cores could absorb by a given share's join;
	// when that disagrees with what the passes assigned, fall back to a
	// bisection on the device share — the capacity-vs-demand balance is
	// monotone in m1, so it always lands.
	if z.wsum > 0 && m2 > 0 {
		tol := max(m2/8, 2)
		if got, _ := r.capacity(m1, z.caps); got+tol < m2 || got > m2+tol {
			lo, hi := 1, h.Rows-1
			for lo < hi {
				mid := (lo + hi) / 2
				if c, _ := r.capacity(mid, z.caps); c >= h.Rows-mid {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			m1 = lo
			m2 = h.Rows - m1
			weights := z.fr
			if got, _ := r.capacity(m1, z.caps); got > 0 {
				for i, c := range z.caps {
					z.w[i] = float64(c)
				}
				weights = z.w
			}
			shares = element.AllocRows(m2, weights)
			m2 = 0
			for _, rc := range shares {
				m2 += rc
			}
			m1 = h.Rows - m2
		}
	}
	if m2 == 0 {
		// Nothing to top up — degenerate back to the oracle's allocation.
		shares = element.AllocRows(h.Rows-m1, z.fr)
	}
	return m1, shares
}

// capacity writes into out the rows each participating core could absorb
// between becoming free and the projected join of an m1-row device half, and
// returns their sum. ok is false (out untouched) when the host model gives a
// row no cost.
func (r *run) capacity(m1 int, out []int) (total int, ok bool) {
	z := &r.sizer
	h := z.t.Hybrid
	p := r.planDevice(z.t, m1, h.Rows, h.SplitReads, z.readyAt)
	join := p.start + sim.Time(p.boundBy(h.GPUSeconds(m1)))
	ref := max((h.Rows-m1)/z.nUsable, 1)
	secPerRow := h.CPUSeconds(ref) / float64(ref)
	if secPerRow <= 0 {
		return 0, false
	}
	for ci := range out {
		out[ci] = 0
		if z.fr[ci] <= 0 {
			continue // sitting out
		}
		budget := float64(join - r.coreFree(ci, z.readyAt))
		if budget <= 0 {
			continue
		}
		rows := min(int(budget/secPerRow*z.fr[ci]*float64(z.nUsable)/z.wsum), h.Rows)
		out[ci] = rows
		total += rows
	}
	return total, true
}
