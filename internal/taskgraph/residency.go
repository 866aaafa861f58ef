package taskgraph

import (
	"errors"
	"fmt"

	"tianhe/internal/gpu"
	"tianhe/internal/sim"
)

// ErrWorkingSet reports a task whose own handles cannot fit in device memory
// even with every other resident evicted; Run returns it (test with
// errors.Is) instead of placing the task.
var ErrWorkingSet = errors.New("taskgraph: working set exceeds device memory")

type workingSetError struct{ need, mem int64 }

func (e *workingSetError) Error() string {
	return fmt.Sprintf("taskgraph: working set of %d bytes exceeds device memory %d", e.need, e.mem)
}

func (e *workingSetError) Unwrap() error { return ErrWorkingSet }

// residentEntry is one handle's slot in the manager: its device copy while
// resident, and the pin stamp whether resident or not.
type residentEntry struct {
	bytes int64
	sp    sim.Span // the booking that produced the device copy
	dirty bool     // device copy newer than host
	// resident entries are threaded on the manager's LRU list.
	resident   bool
	prev, next *residentEntry
	pin        int // epoch of the last pin that named this handle
}

// residency is the device-memory manager of one Run: one slot per handle of
// the graph indexed by handle id, the resident slots threaded on a list from
// least to most recently used, and the byte budget — resident copies plus the
// transient occupancy a booking holds (hybrid row shares, the stream window).
// Admitting and touching only ever move a slot to the tail, so the first slot
// from the head outside the keep-set is the least recently used victim
// without a scan. It starts every Run empty so a graph's timing never depends
// on what an earlier graph left in device memory (checkpoint restores replay
// bit-identically); only the slot array's capacity is carried over. Every
// write-back it books lands in the run's report.
type residency struct {
	dev        *gpu.Device
	rep        *Report
	entries    []residentEntry
	head, tail *residentEntry
	// epoch identifies the keep-set — the handles of the task being placed,
	// never victims: the slots whose pin equals it.
	epoch int
	inUse int64 // resident bytes + held
	held  int64 // transient occupancy of the booking in flight
	err   error // first working-set overflow; sticky
}

// begin empties the manager for a graph with the given handle count.
func (m *residency) begin(rep *Report, handles int) {
	// Slots start at pin 0: the first epoch is 1, so none starts pinned.
	*m = residency{dev: m.dev, rep: rep, entries: resized(m.entries, handles), epoch: 1}
}

// reset forgets every device copy: a lost or re-created context starts with
// empty device memory.
func (m *residency) reset() {
	for re := m.head; re != nil; {
		next := re.next
		re.resident, re.prev, re.next = false, nil, nil
		re = next
	}
	m.head, m.tail = nil, nil
	m.inUse = 0
}

// lookup returns h's device copy, nil when it has none.
func (m *residency) lookup(h *Handle) *residentEntry {
	if re := &m.entries[h.id]; re.resident {
		return re
	}
	return nil
}

// resident reports whether h has a device copy.
func (m *residency) resident(h *Handle) bool { return m.entries[h.id].resident }

// pin makes t's handles the keep-set of the evictions its booking triggers.
func (m *residency) pin(t *Task) {
	m.epoch++
	for _, a := range t.Accesses {
		m.entries[a.H.id].pin = m.epoch
	}
}

// pushBack threads re on the list as the most recently used.
func (m *residency) pushBack(re *residentEntry) {
	re.prev, re.next = m.tail, nil
	if m.tail != nil {
		m.tail.next = re
	} else {
		m.head = re
	}
	m.tail = re
}

func (m *residency) unlink(re *residentEntry) {
	if re.prev != nil {
		re.prev.next = re.next
	} else {
		m.head = re.next
	}
	if re.next != nil {
		re.next.prev = re.prev
	} else {
		m.tail = re.prev
	}
	re.prev, re.next = nil, nil
}

// touch marks a resident copy the most recently used.
func (m *residency) touch(re *residentEntry) {
	if re != m.tail {
		m.unlink(re)
		m.pushBack(re)
	}
}

// evict removes a resident copy and returns its bytes to the budget.
func (m *residency) evict(re *residentEntry) {
	m.unlink(re)
	re.resident = false
	m.inUse -= re.bytes
}

// evictFor makes room for need more bytes, dropping least-recently-used
// residents outside the keep-set. A dirty victim is the only up-to-date copy:
// it is written back first. When the keep-set alone overflows the device the
// manager records the error and stops evicting; Run aborts on it once the
// booking in flight returns.
func (m *residency) evictFor(need int64) {
	// Evicting leaves the rest of the list in order, so the search for the
	// next victim resumes where the last one sat.
	re := m.head
	for m.err == nil && m.inUse+need > m.dev.MemBytes() {
		for re != nil && re.pin == m.epoch {
			re = re.next
		}
		if re == nil {
			m.err = &workingSetError{need: need, mem: m.dev.MemBytes()}
			return
		}
		if re.dirty {
			m.flush(re)
		}
		victim := re
		re = re.next
		m.evict(victim)
	}
}

// admit registers h resident with sp as the booking later readers wait on.
// Admitting a handle that is already resident refreshes its copy in place:
// the bytes are in the budget already.
func (m *residency) admit(h *Handle, sp sim.Span) {
	re := &m.entries[h.id]
	if re.resident {
		m.touch(re)
	} else {
		m.evictFor(h.bytes)
		re.bytes, re.resident = h.bytes, true
		m.pushBack(re)
		m.inUse += h.bytes
	}
	re.sp, re.dirty = sp, false
}

// upload books h's transfer to the device no earlier than at and registers
// the copy resident. Room is made first: a dirty victim's write-back precedes
// the upload on the DMA engine.
func (m *residency) upload(h *Handle, at sim.Time) sim.Span {
	m.evictFor(h.bytes)
	up := m.dev.UploadBytes(h.bytes, at)
	m.rep.BytesIn += h.bytes
	m.admit(h, up)
	return up
}

// hold charges transient occupancy to the working-set guard until release.
func (m *residency) hold(bytes int64) {
	m.evictFor(bytes)
	m.inUse += bytes
	m.held += bytes
}

// release returns everything held since the last release.
func (m *residency) release() {
	m.inUse -= m.held
	m.held = 0
}

// drop invalidates the device copy of h, if any.
func (m *residency) drop(h *Handle) {
	if re := m.lookup(h); re != nil {
		m.evict(re)
	}
}

// writeBack downloads a dirty copy so the host is current again; readers on
// either side then wait on the returned span.
func (m *residency) writeBack(re *residentEntry) sim.Span {
	down := m.dev.DownloadBytes(re.bytes, re.sp.End)
	m.rep.BytesOut += re.bytes
	re.dirty = false
	re.sp = down
	return down
}

// flush is a write-back nothing waits on: it only extends the run.
func (m *residency) flush(re *residentEntry) {
	if end := m.writeBack(re).End; end > m.rep.End {
		m.rep.End = end
	}
}

// drain streams back every handle whose only up-to-date copy lives on the
// device so the host state is complete, in residency order.
func (m *residency) drain() {
	for re := m.head; re != nil; re = re.next {
		if re.dirty {
			m.flush(re)
		}
	}
}
