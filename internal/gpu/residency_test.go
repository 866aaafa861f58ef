package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tianhe/internal/sim"
	"tianhe/internal/telemetry"
)

const (
	testMem = int64(1 << 20)
	// testSlots is how many slots the test managers have.
	testSlots = 24
)

// newTestResidency returns a manager over a 1 MiB device; virtual selects a
// shape-only device.
func newTestResidency(virtual bool) (*Residency, *Device) {
	dev := New(Config{MemBytes: testMem, Virtual: virtual})
	m := &Residency{}
	m.Begin(dev, testSlots)
	return m, dev
}

// traceDMA attaches a fresh tracer to the device's DMA engine and returns
// it: the record of every transfer booked from then on.
func traceDMA(dev *Device) *telemetry.Tracer {
	tel := telemetry.New()
	telemetry.AttachTimelines(tel, "resource", "", dev.DMA)
	return tel.Trace
}

// residents returns the device copies from least to most recently used.
func (m *Residency) residents() []*residentCopy {
	var out []*residentCopy
	for c := m.head; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// checkBudget asserts the manager's accounting after a call: the byte budget
// never negative, never over the device, and exactly resident + held; the LRU
// list holding exactly the resident slots, linked both ways; and the device's
// allocated bytes exactly those of the resident copies that own a buffer.
func checkBudget(t *testing.T, m *Residency, after string) {
	t.Helper()
	var resident, buffered int64
	var prev *residentCopy
	listed := 0
	for c := m.head; c != nil; prev, c = c, c.next {
		if !c.resident || c.prev != prev {
			t.Fatalf("after %s: list position %d is not a resident slot linked to its predecessor", after, listed)
		}
		resident += c.bytes
		if c.buf != nil {
			buffered += c.bytes
		}
		listed++
	}
	if m.tail != prev {
		t.Fatalf("after %s: tail is not the last listed slot", after)
	}
	flagged := 0
	for i := range m.slots {
		if m.slots[i].resident {
			flagged++
		}
	}
	if flagged != listed {
		t.Fatalf("after %s: %d slots marked resident, %d on the list", after, flagged, listed)
	}
	if m.inUse < 0 || m.inUse > m.dev.MemBytes() {
		t.Fatalf("after %s: inUse = %d outside [0, %d]", after, m.inUse, m.dev.MemBytes())
	}
	if m.inUse != resident+m.held {
		t.Fatalf("after %s: inUse = %d, want resident %d + held %d", after, m.inUse, resident, m.held)
	}
	if used := m.dev.MemUsed(); used != buffered {
		t.Fatalf("after %s: device has %d bytes allocated, resident buffers hold %d", after, used, buffered)
	}
}

// scanEntry and scanResidency are the manager the task-graph runtime used
// before residency became slot-indexed, kept verbatim but for its key — the
// handle name became the slot — as the oracle of
// TestResidencyMatchesMapScanLRU: a map with an LRU clock, the victim found by
// scanning every entry for the smallest tick. The additions are the victims
// log and the ledger that stands in for the runtime's report.
type scanEntry struct {
	bytes int64
	sp    sim.Span
	dirty bool
	lru   int
}

type scanLedger struct {
	BytesIn, BytesOut int64
	End               sim.Time
}

type scanResidency struct {
	dev     *Device
	rep     *scanLedger
	entries map[int]*scanEntry
	keep    map[int]bool
	tick    int
	inUse   int64
	held    int64
	err     error

	victims []int // every eviction, in order
}

func newScanResidency(dev *Device, rep *scanLedger) *scanResidency {
	m := &scanResidency{dev: dev, rep: rep, keep: make(map[int]bool)}
	m.reset()
	return m
}

func (m *scanResidency) reset() {
	m.entries = make(map[int]*scanEntry)
	m.inUse = 0
}

func (m *scanResidency) pin(slots []int) {
	clear(m.keep)
	for _, s := range slots {
		m.keep[s] = true
	}
}

func (m *scanResidency) touch(re *scanEntry) {
	m.tick++
	re.lru = m.tick
}

func (m *scanResidency) evictFor(need int64) {
	for m.err == nil && m.inUse+need > m.dev.MemBytes() {
		victim := -1
		var re *scanEntry
		for slot, e := range m.entries {
			if !m.keep[slot] && (re == nil || e.lru < re.lru) {
				victim, re = slot, e
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
		m.victims = append(m.victims, victim)
	}
}

func (m *scanResidency) admit(slot int, bytes int64, sp sim.Span) {
	m.evictFor(bytes)
	m.tick++
	m.entries[slot] = &scanEntry{bytes: bytes, sp: sp, lru: m.tick}
	m.inUse += bytes
}

func (m *scanResidency) upload(slot int, bytes int64, at sim.Time) sim.Span {
	m.evictFor(bytes)
	up := m.dev.UploadBytes(bytes, at)
	m.rep.BytesIn += bytes
	m.admit(slot, bytes, up)
	return up
}

func (m *scanResidency) hold(bytes int64) {
	m.evictFor(bytes)
	m.inUse += bytes
	m.held += bytes
}

func (m *scanResidency) release() {
	m.inUse -= m.held
	m.held = 0
}

func (m *scanResidency) drop(slot int) {
	if re, ok := m.entries[slot]; ok {
		m.inUse -= re.bytes
		delete(m.entries, slot)
	}
}

func (m *scanResidency) writeBack(re *scanEntry) sim.Span {
	down := m.dev.DownloadBytes(re.bytes, re.sp.End)
	m.rep.BytesOut += re.bytes
	re.dirty = false
	re.sp = down
	return down
}

func (m *scanResidency) flush(re *scanEntry) {
	if end := m.writeBack(re).End; end > m.rep.End {
		m.rep.End = end
	}
}

func (m *scanResidency) drain() {
	var dirty []*scanEntry
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

// copyState is one device copy as either manager describes it.
type copyState struct {
	slot  int
	bytes int64
	sp    sim.Span
	dirty bool
}

// residentsByLRU lists the oracle's copies, least recently used first.
func (m *scanResidency) residentsByLRU() []copyState {
	slots := make([]int, 0, len(m.entries))
	for slot := range m.entries {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return m.entries[slots[i]].lru < m.entries[slots[j]].lru })
	var out []copyState
	for _, slot := range slots {
		e := m.entries[slot]
		out = append(out, copyState{slot, e.bytes, e.sp, e.dirty})
	}
	return out
}

// TestResidencyMatchesMapScanLRU drives the manager and the map-scan oracle
// with the same random call sequences, each over its own device, and requires
// them to agree after every call on everything a schedule can observe: which
// copies are resident and in what LRU order, each copy's producing span and
// dirty bit, the victims of the call, the byte budget, the transfer volumes
// and end, the DMA engine's clock, and the call at which the keep-set
// overflows the device. The DMA bookings are compared span by span at the end.
//
// One sequence in sixteen runs the manager on a device with real data and backs
// every copy with a Buffer, as the pipeline's real-data path does: after
// every call the device's allocated bytes must equal the buffered residents',
// and since a double free panics, eviction, drop and reset each free exactly
// once.
func TestResidencyMatchesMapScanLRU(t *testing.T) {
	const sequences = 2000
	overflowed, buffered, transfers := 0, 0, 0
	for seed := uint64(1); seed <= sequences; seed++ {
		rng := sim.NewRNG(seed)
		backed := seed%16 == 0
		m, dev := newTestResidency(!backed)
		odev := New(Config{MemBytes: testMem, Virtual: true})
		dma, odma := traceDMA(dev), traceDMA(odev)
		o := newScanResidency(odev, &scanLedger{})
		var bytesIn int64 // the manager's caller counts its uploads

		// Mixed sizes against the 1 MiB device: mostly tiles that fit a
		// handful at a time, some pivot-sized blocks, a few near the whole
		// device. A size of kb KiB is a kb x 128 buffer.
		sizes := make([]int64, 6+rng.Intn(testSlots-5))
		for i := range sizes {
			kb := 40 + rng.Intn(260)
			switch rng.Intn(8) {
			case 0:
				kb = 1 + rng.Intn(8)
			case 1:
				kb = 500 + rng.Intn(400)
			}
			sizes[i] = int64(kb) << 10
		}
		// stage backs a copy the way the pipeline does: room first, then the
		// allocation (none once the keep-set has overflowed the device).
		stage := func(slot int) *Buffer {
			m.Evict(sizes[slot])
			if !backed || m.Err() != nil {
				return nil
			}
			buf, err := dev.Alloc(int(sizes[slot]>>10), 128)
			if err != nil {
				t.Fatalf("seed %d: %v with the manager's room made", seed, err)
			}
			buffered++
			return buf
		}
		slotOf := make(map[*residentCopy]int, len(sizes))
		for i := range sizes {
			slotOf[&m.slots[i]] = i
		}
		state := func() []copyState {
			var out []copyState
			for _, c := range m.residents() {
				out = append(out, copyState{slotOf[c], c.bytes, c.sp, c.dirty})
			}
			return out
		}
		sameReport := func(at func() string) {
			t.Helper()
			out, end := m.WrittenBack()
			if b := o.rep; bytesIn != b.BytesIn || out != b.BytesOut || end != b.End {
				t.Fatalf("%s: in/out/end %d/%d/%v, oracle %d/%d/%v",
					at(), bytesIn, out, end, b.BytesIn, b.BytesOut, b.End)
			}
		}

		for step := 0; step < 120 && m.Err() == nil; step++ {
			at := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
			slot := rng.Intn(len(sizes))
			resident, ore := m.Resident(slot), o.entries[slot]
			before := state()
			nVictims := len(o.victims)
			dropped := -1
			wiped := false
			switch k := rng.Intn(10); {
			case k == 0:
				var keep []int
				for n := 1 + rng.Intn(4); n > 0; n-- {
					keep = append(keep, rng.Intn(len(sizes)))
				}
				m.Unpin()
				for _, s := range keep {
					m.Pin(s)
				}
				o.pin(keep)
			case k == 1 && !resident:
				sp := sim.Span{Start: sim.Time(step), End: sim.Time(step) + rng.Float64()}
				m.Admit(slot, sizes[slot], sp, stage(slot))
				o.admit(slot, sizes[slot], sp)
			case k == 2 && !resident:
				earliest := sim.Time(step) * rng.Float64()
				buf := stage(slot)
				up := dev.UploadBytes(sizes[slot], earliest)
				bytesIn += sizes[slot]
				m.Admit(slot, sizes[slot], up, buf)
				if b := o.upload(slot, sizes[slot], earliest); up != b {
					t.Fatalf("%s: upload booked %v, oracle %v", at(), up, b)
				}
			case k == 3:
				n := int64(rng.Intn(300)) << 10
				m.Hold(n)
				o.hold(n)
			case k == 4:
				m.Release()
				o.release()
			case k == 5:
				dropped = slot
				m.Drop(slot)
				o.drop(slot)
			case k == 6 && resident:
				m.Touch(slot)
				o.touch(ore)
			case k == 7 && resident:
				// What a device write does: touched, dirty, produced by the kernel.
				sp := sim.Span{Start: sim.Time(step), End: sim.Time(step) + 0.5}
				m.MarkDirty(slot, sp)
				o.touch(ore)
				ore.dirty, ore.sp = true, sp
			case k == 8 && m.Dirty(slot):
				if a, b := m.WriteBack(slot), o.writeBack(ore); a != b {
					t.Fatalf("%s: write-back booked %v, oracle %v", at(), a, b)
				}
			case k == 9 && rng.Intn(8) == 0:
				// A lost context, as the scheduler meets it: between bookings.
				wiped = true
				m.Release()
				o.release()
				m.Reset()
				o.reset()
			default:
				continue
			}

			if (m.Err() != nil) != (o.err != nil) {
				t.Fatalf("%s: err %v, oracle %v", at(), m.Err(), o.err)
			}
			if m.Err() != nil {
				if !errors.Is(m.Err(), ErrWorkingSet) || m.Err().Error() != o.err.Error() {
					t.Fatalf("%s: err %q, oracle %q", at(), m.Err(), o.err)
				}
				overflowed++
			} else {
				checkBudget(t, m, at())
			}
			after := state()
			if want := o.residentsByLRU(); !reflect.DeepEqual(after, want) {
				t.Fatalf("%s: residents, least recently used first:\n got %v\nwant %v", at(), after, want)
			}
			if !wiped {
				// The victims: what left the device other than by the drop.
				still := make(map[int]bool, len(after))
				for _, c := range after {
					still[c.slot] = true
				}
				var gone []int
				for _, c := range before {
					if !still[c.slot] && c.slot != dropped {
						gone = append(gone, c.slot)
					}
				}
				want := append([]int(nil), o.victims[nVictims:]...)
				sort.Ints(gone)
				sort.Ints(want)
				if !reflect.DeepEqual(gone, want) {
					t.Fatalf("%s: evicted %v, oracle %v", at(), gone, want)
				}
			}
			if m.InUse() != o.inUse || m.Held() != o.held {
				t.Fatalf("%s: inUse/held %d/%d, oracle %d/%d", at(), m.InUse(), m.Held(), o.inUse, o.held)
			}
			sameReport(at)
			if a, b := dev.DMA.Available(), odev.DMA.Available(); a != b {
				t.Fatalf("%s: DMA engine free at %v, oracle %v", at(), a, b)
			}
		}
		m.Release()
		o.release()
		m.Drain()
		o.drain()
		sameReport(func() string { return fmt.Sprintf("seed %d after the drain", seed) })
		a, b := dma.Events(), odma.Events()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: DMA bookings differ:\n got %v\nwant %v", seed, a, b)
		}
		transfers += len(a)
		m.Reset()
		if used := dev.MemUsed(); used != 0 {
			t.Fatalf("seed %d: %d bytes still allocated after the reset", seed, used)
		}
	}
	if overflowed < sequences/50 || overflowed > sequences*9/10 {
		t.Errorf("%d of %d sequences ended in ErrWorkingSet: the traffic no longer covers both outcomes", overflowed, sequences)
	}
	if buffered < sequences/16 {
		t.Errorf("the real-data sequences backed only %d copies with buffers", buffered)
	}
	if transfers == 0 {
		t.Error("no sequence booked a DMA transfer: the span comparison proves nothing")
	}
}
