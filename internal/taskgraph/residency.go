package taskgraph

import (
	"errors"
	"fmt"
	"sort"

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

// residentEntry tracks one handle cached in device memory.
type residentEntry struct {
	bytes int64
	sp    sim.Span // the booking that produced the device copy
	dirty bool     // device copy newer than host
	lru   int
}

// residency is the device-memory manager of one Run: the resident set keyed
// by handle name, its LRU clock, and the byte budget — resident copies plus
// the transient occupancy a booking holds (hybrid row shares, the stream
// window). It is fresh per Run so a graph's timing never depends on what an
// earlier graph left in device memory (checkpoint restores replay
// bit-identically). Every write-back it books lands in the run's report.
type residency struct {
	dev     *gpu.Device
	rep     *Report
	entries map[string]*residentEntry
	keep    map[string]bool // the task being placed: its handles are never victims
	tick    int
	inUse   int64 // resident bytes + held
	held    int64 // transient occupancy of the booking in flight
	err     error // first working-set overflow; sticky
}

func newResidency(dev *gpu.Device, rep *Report) residency {
	m := residency{dev: dev, rep: rep, keep: make(map[string]bool)}
	m.reset()
	return m
}

// reset forgets every device copy: a lost or re-created context starts with
// empty device memory.
func (m *residency) reset() {
	m.entries = make(map[string]*residentEntry)
	m.inUse = 0
}

// resident reports whether name has a device copy.
func (m *residency) resident(name string) bool {
	_, ok := m.entries[name]
	return ok
}

// pin makes t's handles the keep-set of the evictions its booking triggers.
func (m *residency) pin(t *Task) {
	clear(m.keep)
	for _, a := range t.Accesses {
		m.keep[a.H.name] = true
	}
}

func (m *residency) touch(re *residentEntry) {
	m.tick++
	re.lru = m.tick
}

// evictFor makes room for need more bytes, dropping least-recently-used
// residents outside the keep-set. A dirty victim is the only up-to-date copy:
// it is written back first. When the keep-set alone overflows the device the
// manager records the error and stops evicting; Run aborts on it once the
// booking in flight returns.
func (m *residency) evictFor(need int64) {
	for m.err == nil && m.inUse+need > m.dev.MemBytes() {
		var victim string
		var re *residentEntry
		for name, e := range m.entries {
			if !m.keep[name] && (re == nil || e.lru < re.lru) {
				victim, re = name, e
			}
		}
		if re == nil {
			m.err = &workingSetError{need: need, mem: m.dev.MemBytes()}
			return
		}
		if re.dirty {
			m.flush(re)
		}
		m.inUse -= re.bytes
		delete(m.entries, victim)
	}
}

// admit registers h resident with sp as the booking later readers wait on.
func (m *residency) admit(h *Handle, sp sim.Span) {
	m.evictFor(h.bytes)
	m.tick++
	m.entries[h.name] = &residentEntry{bytes: h.bytes, sp: sp, lru: m.tick}
	m.inUse += h.bytes
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

// drop invalidates the device copy of name, if any.
func (m *residency) drop(name string) {
	if re, ok := m.entries[name]; ok {
		m.inUse -= re.bytes
		delete(m.entries, name)
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
	var dirty []*residentEntry
	for _, re := range m.entries {
		if re.dirty {
			dirty = append(dirty, re)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].lru < dirty[j].lru })
	for _, re := range dirty {
		m.flush(re)
	}
}
