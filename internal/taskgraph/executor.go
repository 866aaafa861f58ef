package taskgraph

import (
	"fmt"

	"tianhe/internal/abft"
	"tianhe/internal/adaptive"
	"tianhe/internal/gpu"
	"tianhe/internal/sim"
)

// booking is what the executor reports for one placed task.
type booking struct {
	class  Class
	device string
	sp     sim.Span // the kernel (GPU, hybrid) or the core slab (CPU)
	// devEnd and hostEnd are when each side finished, its transfers
	// included; zero for a side that took no part.
	devEnd, hostEnd sim.Time
	devRows         int // rows the device body owned
}

// book places t as the chosen class on the timelines, moves the data its
// accesses need, and feeds the measured duration back to the rate database.
func (r *run) book(t *Task, cls Class, c *candidates, readyAt sim.Time) booking {
	if cls == ClassCPU {
		return r.bookCPU(t, c.core, readyAt)
	}
	pin(&r.res, t)
	// Device bookings start after the task's dependencies.
	r.deps = append(r.deps[:0], sim.Span{Start: readyAt, End: readyAt})
	r.lateUp, r.stale = r.lateUp[:0], r.stale[:0]
	if cls == ClassGPU {
		return r.bookGPU(t, &c.gpuPlan, readyAt)
	}
	return r.bookHybrid(t, c, readyAt)
}

// pin makes t's handles the keep-set of the evictions its booking triggers.
func pin(res *gpu.Residency, t *Task) {
	res.Unpin()
	for _, a := range t.Accesses {
		res.Pin(a.H.id)
	}
}

func (r *run) bookCPU(t *Task, core int, readyAt sim.Time) booking {
	// Host readers of device-dirty handles wait for the download.
	start := readyAt
	for _, a := range t.Accesses {
		if a.Mode != Write && r.res.Dirty(a.H.id) {
			start = max(start, r.res.WriteBack(a.H.id).End)
		}
	}
	sp := r.cores[core].Work(t.Name, t.Codelet.CPUSeconds(t, t.Rows), start)
	r.s.rates.ObserveClass(t.Codelet.Name, ClassCPU, t.Flops, sp.Duration())
	// A host write invalidates any device copy.
	for _, a := range t.Accesses {
		if a.Mode != Read {
			r.res.Drop(a.H.id)
		}
	}
	r.rep.TasksCPU++
	return booking{class: ClassCPU, device: r.coreNames[core], sp: sp, hostEnd: sp.End}
}

// bookGPU books the whole-device body. The fresh working set decides
// streaming semantics on both sides: an oversized written set streams through
// the bounded window (host copy authoritative), an oversized upload set gates
// the launch on a head window only and streams the rest in under the kernel
// as it sweeps rows in order.
func (r *run) bookGPU(t *Task, p *devicePlan, readyAt sim.Time) booking {
	res := &r.res
	for _, a := range t.Accesses {
		if a.Mode == Write {
			continue
		}
		if p.wStream && a.Mode == ReadWrite && !res.Resident(a.H.id) {
			continue // streams through the window instead
		}
		r.stageRead(a.H, p, readyAt)
	}
	if !p.wStream {
		// Write-only outputs still occupy device memory.
		for _, a := range t.Accesses {
			if a.Mode == Write && !res.Resident(a.H.id) {
				res.Admit(a.H.id, a.H.bytes, sim.Span{}, nil)
			}
		}
	}
	r.bookHead(p, readyAt)
	sp := r.dev.Kernel(t.Name, t.Codelet.GPUSeconds(t, t.Rows), r.deps...)
	// The stream window is free again before late residents claim room.
	res.Release()
	end := r.bookStreams(p, sp)
	if res.Err() != nil {
		return booking{} // an aborted placement teaches the rates nothing
	}
	r.s.rates.ObserveClass(t.Codelet.Name, ClassGPU, t.Flops, p.boundBy(sp.Duration()))
	// Written handles that are device-resident are now newer than the host;
	// streamed shares already drained, so the host copy stays authoritative
	// for them.
	for _, a := range t.Accesses {
		if a.Mode != Read && res.Resident(a.H.id) {
			res.MarkDirty(a.H.id, sp)
		}
	}
	r.rep.TasksGPU++
	return booking{class: ClassGPU, device: "gpu", sp: sp, devEnd: end, devRows: t.Rows}
}

// bookHybrid books the split body: the device half owns c.hybRows rows for
// the duration of the task, the host cores share the rest, and the join
// leaves the host copy of every written handle authoritative.
func (r *run) bookHybrid(t *Task, c *candidates, readyAt sim.Time) booking {
	cl, h, m1, p := t.Codelet, t.Codelet.Hybrid, c.hybRows, &c.hybPlan
	hostReady := r.stageHybrid(t, m1, p, readyAt)
	sp := r.dev.Kernel(t.Name, cl.GPUSeconds(t, m1), r.deps...)

	// Join: the device's rows of every written handle stream back — under
	// the kernel for the streamed share, at the drain for held shares and
	// in-place updates of stale resident copies.
	gpuEnd := r.bookStreams(p, sp)
	for _, a := range t.Accesses {
		if a.Mode == Read {
			continue
		}
		if p.wStream && !r.res.Resident(a.H.id) {
			continue // already streamed back under the kernel
		}
		fb := rowShare(a.H.bytes, m1, t.Rows)
		gpuEnd = max(gpuEnd, r.dev.DownloadBytes(fb, sp.End).End)
		r.rep.BytesOut += fb
	}

	// Host half: the remaining rows shared across the cores.
	cpuEnd := hostReady
	maxSlice := sim.Time(0)
	nUsed := 0
	coreWorks, coreTimes := r.coreWorks, r.coreTimes
	clear(coreWorks)
	clear(coreTimes)
	for ci, rc := range c.shares {
		if rc == 0 {
			continue
		}
		nUsed++
		label := t.Name
		if r.cores[ci].TL.ReadsLabels() {
			label = fmt.Sprintf("%s+c%d", t.Name, ci)
		}
		ssp := r.cores[ci].Work(label, cl.CPUSeconds(t, rc), hostReady)
		coreWorks[ci] = t.Flops * float64(rc) / float64(t.Rows)
		coreTimes[ci] = float64(ssp.End - ssp.Start)
		maxSlice = max(maxSlice, ssp.End-ssp.Start)
		cpuEnd = max(cpuEnd, ssp.End)
	}

	// Release the device occupancy the split held: transient row shares and
	// copies the host half just made stale.
	r.res.Release()
	for _, h := range r.stale {
		r.res.Drop(h.id)
	}
	if r.res.Err() != nil {
		return booking{} // an aborted placement teaches the rates and the oracle nothing
	}

	// Feed back the intrinsic parallel compute time — the quantity the
	// candidate rank predicts. Queue skew between the kernel start and the
	// core slabs, and the join drain riding the DMA timeline, both stay out
	// on both sides of the estimate.
	tg := p.boundBy(sp.Duration())
	measured := tg
	if h.FillSkew {
		// Match the estimate's kernel-start frame.
		measured = max(measured, cpuEnd-sp.Start)
	} else {
		measured = max(measured, maxSlice)
	}
	r.s.rates.ObserveClass(cl.Name, ClassHyb, t.Flops, measured)
	tc := maxSlice
	if h.FillSkew && cpuEnd > hostReady {
		// Skew-filled slabs start before the kernel; measure them in the
		// kernel-start frame so a synchronized join reads as tc == tg and
		// the oracle keeps the capacity balance instead of re-learning
		// the skew the scheduler already fills.
		if tc = cpuEnd - sp.Start; tc <= 0 {
			tc = maxSlice
		}
	}
	// The oracle's tc is normalized by the participating-core fraction:
	// a split that dropped busy cores measured only part of the
	// element's CPU capacity, and feeding the raw slab time would teach
	// database_g a ratio that ping-pongs between the full-core and
	// reduced-core regimes instead of the machine's actual GPU:CPU
	// capacity (the dropping mechanism already rescales the row shares
	// deterministically at the next placement).
	if nUsed > 0 && nUsed < len(r.cores) {
		tc = tc * sim.Time(nUsed) / sim.Time(len(r.cores))
	}
	h.Part.Observe(adaptive.Observation{Work: t.Flops, GSplit: float64(m1) / float64(t.Rows),
		TG: float64(tg), TC: float64(tc), CoreWorks: coreWorks, CoreTimes: coreTimes})
	r.rep.TasksHyb++
	label, ok := r.s.hybLabels[m1]
	if !ok {
		label = fmt.Sprintf("hyb(g%d)", m1)
		r.s.hybLabels[m1] = label
	}
	return booking{class: ClassHyb, device: label, sp: sp,
		devEnd: gpuEnd, hostEnd: cpuEnd, devRows: m1}
}

// stageHybrid moves a split task's inputs into place before its kernel:
// kernel dependencies accumulate in r.deps, and the returned time is when the
// host copy of everything the core slabs touch is current.
func (r *run) stageHybrid(t *Task, m1 int, p *devicePlan, readyAt sim.Time) sim.Time {
	h, res := t.Codelet.Hybrid, &r.res
	hostReady := readyAt
	// Pure reads are needed whole on both sides: on the device for the
	// kernel (cacheable, exactly like the GPU body) and current on the host
	// for the core slabs — a device-dirty read streams back first. SplitReads
	// codelets upload only the device rows' share of each fresh read; the
	// partial copy is transient occupancy, never registered resident.
	for _, a := range t.Accesses {
		if a.Mode != Read {
			continue
		}
		switch {
		case res.Dirty(a.H.id):
			hostReady = max(hostReady, res.WriteBack(a.H.id).End)
		case !res.Resident(a.H.id) && h.SplitReads:
			// Fractional head share, booked individually; under rStream the
			// bytes ride the in-stream instead (the head gate already counts
			// the fractional readFresh).
			r.stageShare(rowShare(a.H.bytes, m1, t.Rows), !p.rStream, readyAt)
			continue
		}
		r.stageRead(a.H, p, readyAt)
	}
	// Written handles are row-split: the device owns its share only for the
	// duration of the task (the join downloads it, leaving the host copy
	// authoritative). An existing resident copy serves the device rows in
	// place but goes stale at the join. Both kinds of device occupancy — the
	// transient row share and the whole stale copy — stay charged to the
	// working-set guard until the booking completes, so a tile touched from
	// both devices is counted once and exactly as long as it actually
	// occupies memory.
	for _, a := range t.Accesses {
		if a.Mode == Read {
			continue
		}
		fb := rowShare(a.H.bytes, m1, t.Rows)
		if res.Resident(a.H.id) {
			if a.Mode == ReadWrite {
				if res.Dirty(a.H.id) {
					// The host half updates rows whose only current copy is
					// on the device: write it back before starting.
					hostReady = max(hostReady, res.WriteBack(a.H.id).End)
				}
				r.rep.BytesSkipped += fb
			}
			_, sp := res.Touch(a.H.id)
			r.deps = append(r.deps, sp)
			r.stale = append(r.stale, a.H)
			continue
		}
		if p.wStream {
			continue // streams through the window instead
		}
		r.stageShare(fb, a.Mode == ReadWrite && !p.rStream, hostReady)
	}
	r.bookHead(p, hostReady)
	return hostReady
}

// stageRead makes a handle the kernel reads whole available on the device: a
// resident copy is a skip, a fresh one uploads and becomes resident — under
// the kernel, after the head gate, when the plan streams its reads. Room is
// made before the upload: a dirty victim's write-back precedes it.
func (r *run) stageRead(h *Handle, p *devicePlan, readyAt sim.Time) {
	if r.res.Resident(h.id) {
		r.rep.BytesSkipped += h.bytes
	} else if p.rStream {
		r.lateUp = append(r.lateUp, h)
		return
	} else {
		r.res.Evict(h.bytes)
		r.rep.BytesIn += h.bytes
		r.res.Admit(h.id, h.bytes, r.dev.UploadBytes(h.bytes, readyAt), nil)
	}
	_, sp := r.res.Touch(h.id) // a fresh upload is already the most recent
	r.deps = append(r.deps, sp)
}

// stageShare holds a split task's row share of a handle in device memory for
// the duration of the booking, uploading it no earlier than at unless the
// bytes ride the streams instead.
func (r *run) stageShare(bytes int64, upload bool, at sim.Time) {
	r.res.Hold(bytes)
	if upload {
		r.deps = append(r.deps, r.dev.UploadBytes(bytes, at))
		r.rep.BytesIn += bytes
	}
}

// verify books the ABFT checks of a device placement at its join and resolves
// any SDC strike. The device half is verified at its drain, shaped to the
// rows it owned; the host half of a split only costs checksum time — ECC'd
// host memory is never struck — and a whole-GPU task has no host half. A
// localizable single-element corruption re-books just the device kernel (plus
// a re-verify), an unlocalizable one counts as an escalation for the caller's
// checkpoint machinery. Strikes are drawn from the per-task streams keyed by
// the scheduler-lifetime sequence number, so they depend only on (seed, drain
// order).
func (r *run) verify(t *Task, b *booking) sim.Time {
	s := r.s
	rows, nn, k := t.Shape[0], t.Shape[1], t.Shape[2]
	var verC float64
	if b.class == ClassHyb {
		rows = b.devRows
		verC = abft.VerifySeconds(t.Rows-rows, nn, k)
	}
	verG := abft.VerifySeconds(rows, nn, k)
	gEnd := b.devEnd + verG
	end := max(gEnd, b.hostEnd+verC)
	r.rep.VerifySeconds += verG + verC
	seq := s.taskSeq
	s.taskSeq++
	pr := s.probes
	if pr != nil {
		pr.tracer.Span("taskgraph.abft", "abft", "verify "+t.Name, b.devEnd, gEnd)
	}
	outcome, struck := r.rep.Strike(s.opts.SDC, seq, b.devEnd, rows, nn)
	if !struck {
		return end
	}
	if outcome == abft.Escalate {
		if pr != nil {
			pr.tracer.Instant("taskgraph.abft", "abft", "sdc.escalate "+t.Name, end)
		}
		return end
	}
	redo := r.dev.Kernel(t.Name+"~redo", t.Codelet.GPUSeconds(t, b.devRows), sim.Span{Start: gEnd, End: gEnd})
	rEnd := redo.End + verG
	r.rep.VerifySeconds += verG
	if pr != nil {
		pr.tracer.Instant("taskgraph.abft", "abft", "sdc.recompute "+t.Name, rEnd)
	}
	return max(end, rEnd)
}
