package taskgraph

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/gpu"
	"tianhe/internal/sim"
)

const (
	testMem = int64(1 << 20)
	// testHandles is how many handle slots the test managers have.
	testHandles = 24
)

// newTestResidency returns a manager over a 1 MiB device whose DMA engine
// records its bookings.
func newTestResidency() (*residency, *element.Element) {
	el := element.New(element.Config{Seed: 1, Virtual: true, GPUMem: testMem})
	el.GPU.DMA.SetRecording(true)
	m := &residency{dev: el.GPU}
	m.begin(&Report{}, testHandles)
	return m, el
}

// residents returns the device copies from least to most recently used.
func (m *residency) residents() []*residentEntry {
	var out []*residentEntry
	for re := m.head; re != nil; re = re.next {
		out = append(out, re)
	}
	return out
}

// checkBudget asserts the manager's accounting after a call: the byte budget
// never negative, never over the device, and exactly resident + held; the LRU
// list holding exactly the resident slots, linked both ways.
func checkBudget(t *testing.T, m *residency, after string) {
	t.Helper()
	var resident int64
	var prev *residentEntry
	listed := 0
	for re := m.head; re != nil; prev, re = re, re.next {
		if !re.resident || re.prev != prev {
			t.Fatalf("after %s: list position %d is not a resident slot linked to its predecessor", after, listed)
		}
		resident += re.bytes
		listed++
	}
	if m.tail != prev {
		t.Fatalf("after %s: tail is not the last listed slot", after)
	}
	flagged := 0
	for i := range m.entries {
		if m.entries[i].resident {
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
}

func TestResidencyEvictsLeastRecentlyUsedFirst(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	hs := make([]*Handle, 5)
	for i := range hs {
		hs[i] = g.NewHandle(fmt.Sprintf("h%d", i), 300<<10)
	}
	for _, h := range hs[:3] {
		m.admit(h, sim.Span{})
		checkBudget(t, m, "admit "+h.name)
	}
	m.touch(m.lookup(hs[0])) // h1 is now the coldest, then h2, then h0
	for _, step := range []struct{ in, victim *Handle }{{hs[3], hs[1]}, {hs[4], hs[2]}, {hs[1], hs[0]}} {
		m.admit(step.in, sim.Span{})
		checkBudget(t, m, "admit "+step.in.name)
		if n := len(m.residents()); m.resident(step.victim) || n != 3 {
			t.Fatalf("admitting %s left %d residents including %s, the least recently used",
				step.in.name, n, step.victim.name)
		}
	}
	if m.err != nil {
		t.Fatalf("evictions within capacity failed: %v", m.err)
	}
}

func TestResidencyKeepSetIsNeverEvicted(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	a := g.NewHandle("a", 400<<10)
	b := g.NewHandle("b", 400<<10)
	c := g.NewHandle("c", 200<<10)
	for _, h := range []*Handle{a, b, c} {
		m.admit(h, sim.Span{})
	}
	// a and b are the coldest, but they belong to the task being placed.
	m.pin(&Task{Accesses: []Access{{a, Read}, {b, ReadWrite}}})
	m.hold(200 << 10)
	checkBudget(t, m, "hold")
	if m.resident(c) {
		t.Error("the unpinned resident survived although room was needed")
	}
	if m.err != nil {
		t.Fatalf("hold that fits beside the keep-set failed: %v", m.err)
	}
	// Nothing evictable is left: the keep-set alone overflows the device.
	m.hold(400 << 10)
	if !errors.Is(m.err, ErrWorkingSet) {
		t.Fatalf("err = %v, want ErrWorkingSet", m.err)
	}
	for _, h := range []*Handle{a, b} {
		if !m.resident(h) {
			t.Errorf("pinned handle %s was evicted", h.name)
		}
	}
}

// TestResidencyPinLastsUntilTheNextPin: the keep-set is the handles of the
// latest pin only — an earlier task's handles are victims again.
func TestResidencyPinLastsUntilTheNextPin(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	a := g.NewHandle("a", 600<<10)
	b := g.NewHandle("b", 300<<10)
	m.admit(a, sim.Span{})
	m.pin(&Task{Accesses: []Access{{a, Read}}})
	m.pin(&Task{Accesses: []Access{{b, Write}}})
	m.admit(b, sim.Span{})
	m.hold(300 << 10)
	if m.err != nil || m.resident(a) || !m.resident(b) {
		t.Fatalf("err %v, a resident %v, b resident %v: want a evicted for the hold and b kept",
			m.err, m.resident(a), m.resident(b))
	}
}

func TestResidencyDirtyVictimIsWrittenBackOnce(t *testing.T) {
	m, el := newTestResidency()
	g := New()
	a := g.NewHandle("a", 600<<10)
	b := g.NewHandle("b", 600<<10)
	kernel := sim.Span{Start: 1, End: 2}
	m.admit(a, kernel)
	m.lookup(a).dirty = true
	m.admit(b, sim.Span{}) // does not fit beside a
	checkBudget(t, m, "admit b")
	if m.resident(a) {
		t.Fatal("a still resident beside b on a device that holds only one")
	}
	spans := el.GPU.DMA.Spans()
	if len(spans) != 1 || spans[0].Label != "down" {
		t.Fatalf("DMA bookings = %v, want exactly one download", spans)
	}
	if spans[0].Start < kernel.End {
		t.Errorf("write-back started at %v, before the copy was produced at %v", spans[0].Start, kernel.End)
	}
	if want := el.GPU.TransferModel().Seconds(a.bytes); el.GPU.DMA.Busy() != want {
		t.Errorf("write-back kept the DMA engine busy %v, want %v for %d bytes", el.GPU.DMA.Busy(), want, a.bytes)
	}
	if m.rep.BytesOut != a.bytes {
		t.Errorf("BytesOut = %d, want the victim's %d bytes", m.rep.BytesOut, a.bytes)
	}
	if m.rep.End != spans[0].End {
		t.Errorf("report End = %v, want the write-back's end %v", m.rep.End, spans[0].End)
	}
	// A clean victim costs no transfer.
	m.admit(a, sim.Span{})
	if n := len(el.GPU.DMA.Spans()); n != 1 {
		t.Errorf("evicting a clean copy booked %d extra transfers", n-1)
	}
}

// TestResidencyReadmitDoesNotDoubleCount: admitting a handle that is already
// resident (a streamed-read plan holding it twice) refreshes the copy in
// place. The budget used to be charged a second time and leaked until reset.
func TestResidencyReadmitDoesNotDoubleCount(t *testing.T) {
	m, el := newTestResidency()
	g := New()
	a := g.NewHandle("a", 300<<10)
	b := g.NewHandle("b", 300<<10)
	m.admit(a, sim.Span{End: 1})
	m.lookup(a).dirty = true
	m.admit(b, sim.Span{})
	late := sim.Span{Start: 2, End: 3}
	m.admit(a, late)
	checkBudget(t, m, "re-admit a")
	if want := a.bytes + b.bytes; m.inUse != want {
		t.Fatalf("inUse = %d after re-admitting a resident handle, want %d", m.inUse, want)
	}
	re := m.lookup(a)
	if re == nil || re.sp != late || re.dirty {
		t.Fatalf("re-admitted entry = %+v, want a clean copy produced by %v", re, late)
	}
	if got := m.residents(); len(got) != 2 || got[0] != m.lookup(b) || got[1] != re {
		t.Error("re-admitting did not make the handle the most recently used")
	}
	if n := len(el.GPU.DMA.Spans()); n != 0 {
		t.Errorf("re-admitting booked %d transfers, want none", n)
	}
	m.drop(a)
	m.drop(b)
	if m.inUse != 0 {
		t.Errorf("inUse = %d with nothing resident", m.inUse)
	}
}

// TestResidencyBudgetHoldsUnderRandomTraffic drives every mutating call in
// random order and checks the byte budget after each one.
func TestResidencyBudgetHoldsUnderRandomTraffic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		m, _ := newTestResidency()
		rng := sim.NewRNG(seed)
		g := New()
		hs := make([]*Handle, 12)
		for i := range hs {
			hs[i] = g.NewHandle(fmt.Sprintf("h%d", i), int64(1+rng.Intn(300))<<10)
		}
		for step := 0; step < 400 && m.err == nil; step++ {
			h := hs[rng.Intn(len(hs))]
			re := m.lookup(h)
			var op string
			switch k := rng.Intn(9); {
			case k == 0:
				op = "pin"
				m.pin(&Task{Accesses: []Access{{h, Read}, {hs[rng.Intn(len(hs))], Write}}})
			case k == 1:
				op = "admit"
				m.admit(h, sim.Span{})
			case k == 2 && re == nil:
				op = "upload"
				m.upload(h, sim.Time(step))
			case k == 3:
				op = "hold"
				m.hold(int64(rng.Intn(200)) << 10)
			case k == 4:
				op = "release"
				m.release()
			case k == 5:
				op = "drop"
				m.drop(h)
			case k == 6 && re != nil:
				op = "dirty+touch"
				m.touch(re)
				re.dirty = true
			case k == 7 && re != nil && re.dirty:
				op = "writeBack"
				m.writeBack(re)
			case k == 8 && rng.Intn(10) == 0:
				op = "reset"
				m.release()
				m.reset()
			default:
				continue
			}
			if m.err == nil {
				checkBudget(t, m, fmt.Sprintf("seed %d step %d %s", seed, step, op))
			}
		}
		m.release()
		m.drain()
		for _, re := range m.residents() {
			if re.dirty {
				t.Fatalf("seed %d: a copy is still dirty after the final drain", seed)
			}
		}
	}
}

func TestResidencyHeldBytesReleaseExactlyOnce(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	m.admit(g.NewHandle("a", 100<<10), sim.Span{})
	m.hold(200 << 10)
	m.hold(300 << 10)
	if want := int64(600 << 10); m.inUse != want {
		t.Fatalf("inUse = %d with two shares held, want %d", m.inUse, want)
	}
	m.release()
	checkBudget(t, m, "release")
	if want := int64(100 << 10); m.inUse != want {
		t.Fatalf("inUse = %d after release, want the resident %d", m.inUse, want)
	}
	m.release() // nothing held: must not credit the bytes a second time
	checkBudget(t, m, "second release")
	if want := int64(100 << 10); m.inUse != want {
		t.Fatalf("inUse = %d after a second release, want %d", m.inUse, want)
	}
}

// TestHybridBookingReleasesTransientAndStaleOccupancy books a split update of
// a device-dirty tile through the executor and inspects the manager after the
// join: the row share the device half held and the resident copy the host
// half made stale are both gone, each subtracted once.
func TestHybridBookingReleasesTransientAndStaleOccupancy(t *testing.T) {
	el := element.New(element.Config{Seed: 19, Virtual: true, GPUMem: testMem})
	s := NewScheduler(el, Options{})
	g := New()
	tile := g.NewHandle("tile", 256<<10)
	fresh := g.NewHandle("fresh", 128<<10)
	cached := g.NewHandle("cached", 64<<10)
	r := s.newRun(g, 0)
	r.res.admit(tile, sim.Span{End: 1})
	r.res.lookup(tile).dirty = true
	r.res.admit(cached, sim.Span{})

	task := hybTask("upd", 256, 0.5, 3.0, 1.0)
	task.Accesses = []Access{{tile, ReadWrite}, {fresh, ReadWrite}, {cached, Read}}
	upd := &task
	c := r.estimate(upd, 1, true)
	if c.choose() != ClassHyb {
		t.Fatalf("candidates %+v did not favour the hybrid body", c)
	}
	b := r.book(upd, ClassHyb, &c, 1)
	if r.res.err != nil {
		t.Fatal(r.res.err)
	}
	if b.devRows != 128 {
		t.Fatalf("device half owns %d rows, want 128", b.devRows)
	}
	if r.res.held != 0 {
		t.Errorf("held = %d after the join, want 0", r.res.held)
	}
	if r.res.resident(tile) {
		t.Error("the stale device copy of the updated tile is still resident")
	}
	if r.res.resident(fresh) {
		t.Error("a transient row share was registered resident")
	}
	// Only the cached read is left: everything else was charged and released.
	if want := cached.bytes; r.res.inUse != want {
		t.Errorf("inUse = %d after the join, want %d", r.res.inUse, want)
	}
	checkBudget(t, &r.res, "hybrid booking")
}

// scanEntry and scanResidency are the manager this package used before
// residency became id-indexed, kept verbatim as the oracle of
// TestResidencyMatchesMapScanLRU: a map keyed by handle name with an LRU
// clock, the victim found by scanning every entry for the smallest tick. The
// one addition is the victims log.
type scanEntry struct {
	bytes int64
	sp    sim.Span
	dirty bool
	lru   int
}

type scanResidency struct {
	dev     *gpu.Device
	rep     *Report
	entries map[string]*scanEntry
	keep    map[string]bool
	tick    int
	inUse   int64
	held    int64
	err     error

	victims []string // every eviction, in order
}

func newScanResidency(dev *gpu.Device, rep *Report) *scanResidency {
	m := &scanResidency{dev: dev, rep: rep, keep: make(map[string]bool)}
	m.reset()
	return m
}

func (m *scanResidency) reset() {
	m.entries = make(map[string]*scanEntry)
	m.inUse = 0
}

func (m *scanResidency) pin(t *Task) {
	clear(m.keep)
	for _, a := range t.Accesses {
		m.keep[a.H.name] = true
	}
}

func (m *scanResidency) touch(re *scanEntry) {
	m.tick++
	re.lru = m.tick
}

func (m *scanResidency) evictFor(need int64) {
	for m.err == nil && m.inUse+need > m.dev.MemBytes() {
		var victim string
		var re *scanEntry
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
		m.victims = append(m.victims, victim)
	}
}

func (m *scanResidency) admit(h *Handle, sp sim.Span) {
	m.evictFor(h.bytes)
	m.tick++
	m.entries[h.name] = &scanEntry{bytes: h.bytes, sp: sp, lru: m.tick}
	m.inUse += h.bytes
}

func (m *scanResidency) upload(h *Handle, at sim.Time) sim.Span {
	m.evictFor(h.bytes)
	up := m.dev.UploadBytes(h.bytes, at)
	m.rep.BytesIn += h.bytes
	m.admit(h, up)
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

func (m *scanResidency) drop(name string) {
	if re, ok := m.entries[name]; ok {
		m.inUse -= re.bytes
		delete(m.entries, name)
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
	name  string
	bytes int64
	sp    sim.Span
	dirty bool
}

// residentsByLRU lists the oracle's copies, least recently used first.
func (m *scanResidency) residentsByLRU() []copyState {
	names := make([]string, 0, len(m.entries))
	for name := range m.entries {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return m.entries[names[i]].lru < m.entries[names[j]].lru })
	var out []copyState
	for _, name := range names {
		e := m.entries[name]
		out = append(out, copyState{name, e.bytes, e.sp, e.dirty})
	}
	return out
}

// TestResidencyMatchesMapScanLRU drives the manager and the map-scan oracle
// with the same random call sequences, each over its own device, and requires
// them to agree after every call on everything a schedule can observe: which
// copies are resident and in what LRU order, each copy's producing span and
// dirty bit, the victims of the call, the byte budget, the report's transfer
// volumes and end, the DMA engine's clock, and the call at which the keep-set
// overflows the device. The DMA bookings are compared span by span at the end.
func TestResidencyMatchesMapScanLRU(t *testing.T) {
	const sequences = 2000
	overflowed := 0
	for seed := uint64(1); seed <= sequences; seed++ {
		rng := sim.NewRNG(seed)
		m, el := newTestResidency()
		oel := element.New(element.Config{Seed: 1, Virtual: true, GPUMem: testMem})
		oel.GPU.DMA.SetRecording(true)
		o := newScanResidency(oel.GPU, &Report{})

		// Mixed sizes against the 1 MiB device: mostly tiles that fit a
		// handful at a time, some pivot-sized blocks, a few near the whole
		// device.
		g := New()
		hs := make([]*Handle, 6+rng.Intn(testHandles-5))
		nameOf := make(map[*residentEntry]string, len(hs))
		for i := range hs {
			kb := 40 + rng.Intn(260)
			switch rng.Intn(8) {
			case 0:
				kb = 1 + rng.Intn(8)
			case 1:
				kb = 500 + rng.Intn(400)
			}
			hs[i] = g.NewHandle(fmt.Sprintf("h%d", i), int64(kb)<<10)
			nameOf[&m.entries[i]] = hs[i].name
		}
		state := func() []copyState {
			var out []copyState
			for _, e := range m.residents() {
				out = append(out, copyState{nameOf[e], e.bytes, e.sp, e.dirty})
			}
			return out
		}
		sameReport := func(at func() string) {
			t.Helper()
			if a, b := m.rep, o.rep; a.BytesIn != b.BytesIn || a.BytesOut != b.BytesOut || a.End != b.End {
				t.Fatalf("%s: report in/out/end %d/%d/%v, oracle %d/%d/%v",
					at(), a.BytesIn, a.BytesOut, a.End, b.BytesIn, b.BytesOut, b.End)
			}
		}

		for step := 0; step < 120 && m.err == nil; step++ {
			at := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
			h := hs[rng.Intn(len(hs))]
			re, ore := m.lookup(h), o.entries[h.name]
			before := state()
			nVictims := len(o.victims)
			var dropped string
			wiped := false
			switch k := rng.Intn(10); {
			case k == 0:
				task := &Task{}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					task.Accesses = append(task.Accesses, Access{hs[rng.Intn(len(hs))], AccessMode(rng.Intn(3))})
				}
				m.pin(task)
				o.pin(task)
			case k == 1 && re == nil:
				sp := sim.Span{Start: sim.Time(step), End: sim.Time(step) + rng.Float64()}
				m.admit(h, sp)
				o.admit(h, sp)
			case k == 2 && re == nil:
				earliest := sim.Time(step) * rng.Float64()
				if a, b := m.upload(h, earliest), o.upload(h, earliest); a != b {
					t.Fatalf("%s: upload booked %v, oracle %v", at(), a, b)
				}
			case k == 3:
				n := int64(rng.Intn(300)) << 10
				m.hold(n)
				o.hold(n)
			case k == 4:
				m.release()
				o.release()
			case k == 5:
				dropped = h.name
				m.drop(h)
				o.drop(h.name)
			case k == 6 && re != nil:
				m.touch(re)
				o.touch(ore)
			case k == 7 && re != nil:
				// What a device write does: touched, dirty, produced by the kernel.
				m.touch(re)
				o.touch(ore)
				re.dirty, ore.dirty = true, true
				re.sp = sim.Span{Start: sim.Time(step), End: sim.Time(step) + 0.5}
				ore.sp = re.sp
			case k == 8 && re != nil && re.dirty:
				if a, b := m.writeBack(re), o.writeBack(ore); a != b {
					t.Fatalf("%s: write-back booked %v, oracle %v", at(), a, b)
				}
			case k == 9 && rng.Intn(8) == 0:
				// A lost context, as the scheduler meets it: between bookings.
				wiped = true
				m.release()
				o.release()
				m.reset()
				o.reset()
			default:
				continue
			}

			if (m.err != nil) != (o.err != nil) {
				t.Fatalf("%s: err %v, oracle %v", at(), m.err, o.err)
			}
			if m.err != nil {
				if !errors.Is(m.err, ErrWorkingSet) || m.err.Error() != o.err.Error() {
					t.Fatalf("%s: err %q, oracle %q", at(), m.err, o.err)
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
				still := make(map[string]bool, len(after))
				for _, c := range after {
					still[c.name] = true
				}
				var gone []string
				for _, c := range before {
					if !still[c.name] && c.name != dropped {
						gone = append(gone, c.name)
					}
				}
				want := append([]string(nil), o.victims[nVictims:]...)
				sort.Strings(gone)
				sort.Strings(want)
				if !reflect.DeepEqual(gone, want) {
					t.Fatalf("%s: evicted %v, oracle %v", at(), gone, want)
				}
			}
			if m.inUse != o.inUse || m.held != o.held {
				t.Fatalf("%s: inUse/held %d/%d, oracle %d/%d", at(), m.inUse, m.held, o.inUse, o.held)
			}
			sameReport(at)
			if a, b := el.GPU.DMA.Available(), oel.GPU.DMA.Available(); a != b {
				t.Fatalf("%s: DMA engine free at %v, oracle %v", at(), a, b)
			}
		}
		m.release()
		o.release()
		m.drain()
		o.drain()
		sameReport(func() string { return fmt.Sprintf("seed %d after the drain", seed) })
		if a, b := el.GPU.DMA.Spans(), oel.GPU.DMA.Spans(); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: DMA bookings differ:\n got %v\nwant %v", seed, a, b)
		}
	}
	if overflowed < sequences/50 || overflowed > sequences*9/10 {
		t.Errorf("%d of %d sequences ended in ErrWorkingSet: the traffic no longer covers both outcomes", overflowed, sequences)
	}
}
