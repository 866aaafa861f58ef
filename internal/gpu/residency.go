package gpu

import (
	"errors"
	"fmt"
	"slices"

	"tianhe/internal/sim"
)

// ErrWorkingSet reports a booking whose own copies cannot fit in device
// memory even with every other resident evicted (test with errors.Is).
var ErrWorkingSet = errors.New("gpu: working set exceeds device memory")

type workingSetError struct{ need, mem int64 }

func (e *workingSetError) Error() string {
	return fmt.Sprintf("gpu: working set of %d bytes exceeds device memory %d", e.need, e.mem)
}

func (e *workingSetError) Unwrap() error { return ErrWorkingSet }

// residentCopy is one slot of the manager: its device copy while resident,
// and the pin stamp whether resident or not.
type residentCopy struct {
	bytes int64
	sp    sim.Span // the booking that produced the device copy
	buf   *Buffer  // its allocation; nil on shape-only paths
	dirty bool     // device copy newer than host
	// resident copies are threaded on the manager's LRU list.
	resident   bool
	prev, next *residentCopy
	pin        int // epoch of the last Pin that named this slot
}

// Residency is the device-memory manager of one run over a device: one slot
// per datum the caller keys densely by int (a task-graph handle id, a
// pipeline operand tile), the resident slots threaded on a list from least to
// most recently used, and the byte budget — resident copies plus the
// transient occupancy the caller holds. Admitting and touching only ever move
// a slot to the tail, so the first slot from the head outside the keep-set is
// the least recently used victim without a scan. A copy may carry the Buffer
// that backs it: eviction, Drop and Reset free it. Every write-back it books
// is counted in WrittenBack for the caller's report.
type Residency struct {
	dev        *Device
	slots      []residentCopy
	head, tail *residentCopy
	epoch      int      // the keep-set is the slots whose pin equals it
	inUse      int64    // resident bytes + held
	held       int64    // transient occupancy
	err        error    // first working-set overflow; sticky
	out        int64    // bytes every write-back downloaded
	end        sim.Time // latest end of a write-back nothing waits on
}

// Begin empties the manager for a run with the given slot count on dev. Only
// the slot array's capacity is carried over, so a run's timing never depends
// on what an earlier run left in device memory; buffers still resident must
// have been released with Reset.
func (m *Residency) Begin(dev *Device, slots int) {
	s := slices.Grow(m.slots[:0], slots)[:slots]
	clear(s)
	// Slots start at pin 0: the first epoch is 1, so none starts pinned.
	*m = Residency{dev: dev, slots: s, epoch: 1}
}

// Reset forgets every device copy and frees its buffer: a lost or re-created
// context starts with empty device memory. Held bytes stay held. The links of
// a slot off the list are never read: admitting it sets them afresh.
func (m *Residency) Reset() {
	for c := m.head; c != nil; c = c.next {
		c.buf.Free()
		c.resident, c.buf = false, nil
	}
	m.head, m.tail = nil, nil
	m.inUse = m.held
}

// Resident reports whether slot has a device copy.
func (m *Residency) Resident(slot int) bool { return m.slots[slot].resident }

// Dirty reports whether slot has a device copy newer than the host's.
func (m *Residency) Dirty(slot int) bool { return m.slots[slot].resident && m.slots[slot].dirty }

// Unpin empties the keep-set: the slots the booking in flight uses, never
// victims of the evictions it triggers.
func (m *Residency) Unpin() { m.epoch++ }

// Pin adds slot to the keep-set.
func (m *Residency) Pin(slot int) { m.slots[slot].pin = m.epoch }

// pushBack threads c on the list as the most recently used.
func (m *Residency) pushBack(c *residentCopy) {
	c.prev, c.next = m.tail, nil
	if m.tail != nil {
		m.tail.next = c
	} else {
		m.head = c
	}
	m.tail = c
}

func (m *Residency) unlink(c *residentCopy) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		m.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		m.tail = c.prev
	}
	c.prev, c.next = nil, nil
}

// Touch marks slot's resident copy the most recently used and returns its
// buffer and the booking its readers wait on.
func (m *Residency) Touch(slot int) (*Buffer, sim.Span) {
	c := &m.slots[slot]
	if c != m.tail {
		m.unlink(c)
		m.pushBack(c)
	}
	return c.buf, c.sp
}

// MarkDirty records that the booking sp produced a copy of resident slot
// newer than the host's: it becomes the most recently used, and later readers
// wait on sp.
func (m *Residency) MarkDirty(slot int, sp sim.Span) {
	m.Touch(slot)
	m.slots[slot].sp, m.slots[slot].dirty = sp, true
}

// evict removes a resident copy, frees its buffer and returns its bytes to
// the budget.
func (m *Residency) evict(c *residentCopy) {
	m.unlink(c)
	c.buf.Free()
	c.resident, c.buf = false, nil
	m.inUse -= c.bytes
}

// Evict makes room for need more bytes, dropping least-recently-used copies
// outside the keep-set. A dirty victim is the only up-to-date copy: it is
// written back first. When the keep-set alone overflows the device the
// manager records ErrWorkingSet (see Err) and stops evicting.
func (m *Residency) Evict(need int64) {
	// Evicting leaves the rest of the list in order, so the search for the
	// next victim resumes where the last one sat.
	c := m.head
	for m.err == nil && m.inUse+need > m.dev.MemBytes() {
		for c != nil && c.pin == m.epoch {
			c = c.next
		}
		if c == nil {
			m.err = &workingSetError{need: need, mem: m.dev.MemBytes()}
			return
		}
		if c.dirty {
			m.flush(c)
		}
		victim := c
		c = c.next
		m.evict(victim)
	}
}

// Admit registers a clean copy of slot, bytes long, produced by sp and backed
// by buf (nil on shape-only paths), making room for it first. Admitting a
// slot already resident refreshes its copy in place: the bytes are in the
// budget already.
func (m *Residency) Admit(slot int, bytes int64, sp sim.Span, buf *Buffer) {
	c := &m.slots[slot]
	if c.resident {
		m.Touch(slot)
		if c.buf != buf {
			c.buf.Free()
		}
	} else {
		m.Evict(bytes)
		c.bytes, c.resident = bytes, true
		m.pushBack(c)
		m.inUse += bytes
	}
	c.sp, c.buf, c.dirty = sp, buf, false
}

// Hold charges transient occupancy to the budget until Release, making room
// for it first.
func (m *Residency) Hold(bytes int64) {
	m.Evict(bytes)
	m.inUse += bytes
	m.held += bytes
}

// Release returns everything held since the last release.
func (m *Residency) Release() {
	m.inUse -= m.held
	m.held = 0
}

// Drop invalidates slot's device copy, if any.
func (m *Residency) Drop(slot int) {
	if c := &m.slots[slot]; c.resident {
		m.evict(c)
	}
}

// WriteBack downloads slot's dirty copy so the host is current again; readers
// on either side then wait on the returned span.
func (m *Residency) WriteBack(slot int) sim.Span { return m.writeBack(&m.slots[slot]) }

func (m *Residency) writeBack(c *residentCopy) sim.Span {
	down := m.dev.DownloadBytes(c.bytes, c.sp.End)
	m.out += c.bytes
	c.dirty, c.sp = false, down
	return down
}

// flush is a write-back nothing waits on: it only extends the run.
func (m *Residency) flush(c *residentCopy) { m.end = max(m.end, m.writeBack(c).End) }

// Drain writes back every copy newer than the host's, in LRU order, so the
// host state is complete.
func (m *Residency) Drain() {
	for c := m.head; c != nil; c = c.next {
		if c.dirty {
			m.flush(c)
		}
	}
}

// Err returns the first working-set overflow, nil while there was none.
func (m *Residency) Err() error { return m.err }

// InUse returns the budget's bytes: resident copies plus held occupancy.
func (m *Residency) InUse() int64 { return m.inUse }

// Held returns the occupancy held since the last Release.
func (m *Residency) Held() int64 { return m.held }

// WrittenBack returns the bytes every write-back downloaded and the latest
// end of one nothing waited on (an evicted dirty victim, the drain): what the
// caller's report owes the manager.
func (m *Residency) WrittenBack() (bytes int64, end sim.Time) { return m.out, m.end }
