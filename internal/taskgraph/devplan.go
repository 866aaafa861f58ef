package taskgraph

import "tianhe/internal/sim"

// devicePlan models the device side of one placement at a given row share:
// the task's fresh (non-resident) working set by access class, the transfer
// shape streamPlan gives it, and the earliest kernel start that shape allows.
// The cost step ranks candidates from it and the executor books exactly what
// it describes, so the learned rate predicts what actually gets booked.
type devicePlan struct {
	readFresh, rwFresh, wrFresh int64
	gate, upRest, down          int64
	rStream, wStream            bool
	// streamSec is the transfer time of the traffic overlapped with the
	// kernel (upRest+down); the device half runs bandwidth-bound when it
	// exceeds the kernel. Zero when nothing streams.
	streamSec float64
	// start is the earliest kernel start: queue free, and the gate uploaded
	// on a DMA engine that is itself free no earlier than readyAt.
	start sim.Time
}

// planDevice plans the device half that owns m1 of the task's rows. Written
// handles are row-split; reads are needed whole unless splitReads declares
// them row-local. A whole-GPU placement is the m1 == rows case (callers pass
// 1 of 1): every handle counts in full.
func (r *run) planDevice(t *Task, m1, rows int, splitReads bool, readyAt sim.Time) devicePlan {
	var p devicePlan
	for _, a := range t.Accesses {
		if r.res.Resident(a.H.id) {
			continue
		}
		fb := rowShare(a.H.bytes, m1, rows)
		switch a.Mode {
		case Read:
			if splitReads {
				p.readFresh += fb
			} else {
				p.readFresh += a.H.bytes
			}
		case ReadWrite:
			p.rwFresh += fb
			p.wrFresh += fb
		case Write:
			p.wrFresh += fb
		}
	}
	p.gate, p.upRest, p.down, p.rStream, p.wStream = streamPlan(p.readFresh, p.rwFresh, p.wrFresh, r.window)
	tm := r.dev.TransferModel()
	if p.upRest+p.down > 0 {
		p.streamSec = tm.Seconds(p.upRest + p.down)
	}
	p.start = max(r.dev.Queue.Available(), readyAt)
	if dmaDone := max(r.dev.DMA.Available(), readyAt) + tm.Seconds(p.gate); dmaDone > p.start {
		p.start = dmaDone
	}
	return p
}

// rowShare is the part of a row-split handle that m1 of rows rows own.
func rowShare(bytes int64, m1, rows int) int64 { return bytes * int64(m1) / int64(rows) }

// boundBy returns the device half's duration given its kernel time: compute-
// bound, or bandwidth-bound when the overlapped stream is slower.
func (p *devicePlan) boundBy(kernel float64) float64 {
	if p.streamSec > kernel {
		return p.streamSec
	}
	return kernel
}

// streamPlan decides the transfer shape of a task's fresh working set against
// the bounded stream window. gate is the upload that must land before the
// kernel launches, upRest the inbound stream overlapped with the kernel, and
// down the outbound stream riding under it. rStream reports an oversized
// upload set (fresh reads plus in-place updates): only a head window gates the
// launch and the rest streams in as the kernel sweeps rows in order. wStream
// reports an oversized written set: it cannot become resident, so it cycles
// through the window and the host copy stays authoritative. The two compose —
// a trailing-update slab typically overflows both sides at once.
func streamPlan(readFresh, rwFresh, wrFresh, window int64) (gate, upRest, down int64, rStream, wStream bool) {
	upFresh := readFresh + rwFresh
	rStream = upFresh > window
	wStream = wrFresh > window
	switch {
	case rStream:
		gate = window / 2
		upRest = upFresh - gate
	case wStream:
		head := min(rwFresh, window/2)
		gate = readFresh + head
		upRest = rwFresh - head
	default:
		gate = upFresh
	}
	if wStream {
		down = wrFresh
	}
	return gate, upRest, down, rStream, wStream
}

// bookHead books what a streamed plan needs before the launch: the head
// window on the DMA engine no earlier than at, and the stream window's device
// occupancy. The head gates the launch; the rest of the inbound stream and
// the whole outbound stream ride the DMA engine under the kernel. Unstreamed
// plans uploaded their handles one by one and need nothing here.
func (r *run) bookHead(p *devicePlan, at sim.Time) {
	if !p.rStream && !p.wStream {
		return
	}
	head := p.gate
	if p.rStream {
		r.rep.BytesIn += p.readFresh + p.rwFresh
	} else {
		head -= p.readFresh // fresh reads were booked handle by handle
		r.rep.BytesIn += p.rwFresh
	}
	if head > 0 {
		r.deps = append(r.deps, r.dev.UploadBytes(head, at))
	}
	if p.wStream {
		r.res.Hold(r.window)
	}
}

// bookStreams books the traffic overlapped with the kernel and returns when
// the device side is done: the task ends only once the last window has
// drained. Fresh reads that rode the in-stream are resident once it drains;
// later readers wait on that span, not the kernel.
func (r *run) bookStreams(p *devicePlan, kernel sim.Span) sim.Time {
	end := kernel.End
	var rest sim.Span
	if p.upRest > 0 {
		rest = r.dev.UploadBytes(p.upRest, kernel.Start)
		end = max(end, rest.End)
	}
	if p.down > 0 {
		down := r.dev.DownloadBytes(p.down, kernel.Start)
		r.rep.BytesOut += p.down
		end = max(end, down.End)
	}
	for _, h := range r.lateUp {
		r.res.Admit(h.id, h.bytes, rest, nil)
	}
	return end
}
