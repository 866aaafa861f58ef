package taskgraph

import (
	"errors"
	"fmt"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/gpu"
	"tianhe/internal/sim"
)

// The tests in this file drive the device-memory manager the way the
// scheduler does — one slot per handle id, sized in bytes by the handle —
// through what the scheduler can see of it. Its list invariants and its
// agreement with the earlier map-scan manager are tested in package gpu.

const (
	testMem = int64(1 << 20)
	// testHandles is how many handle slots the test managers have.
	testHandles = 24
)

// newTestResidency returns a manager over a 1 MiB device whose DMA engine
// records its bookings.
func newTestResidency() (*gpu.Residency, *element.Element) {
	el := element.New(element.Config{Seed: 1, Virtual: true, GPUMem: testMem})
	el.GPU.DMA.SetRecording(true)
	m := &gpu.Residency{}
	m.Begin(el.GPU, testHandles)
	return m, el
}

// admit registers h's device copy, produced by sp.
func admit(m *gpu.Residency, h *Handle, sp sim.Span) { m.Admit(h.id, h.bytes, sp, nil) }

// residentCount counts the handles of hs with a device copy.
func residentCount(m *gpu.Residency, hs []*Handle) int {
	n := 0
	for _, h := range hs {
		if m.Resident(h.id) {
			n++
		}
	}
	return n
}

// checkBudget asserts the manager's accounting after a call, hs being every
// handle it has seen: the byte budget never negative, never over the device,
// and exactly the resident handles' bytes plus what is held.
func checkBudget(t *testing.T, m *gpu.Residency, hs []*Handle, after string) {
	t.Helper()
	var resident int64
	for _, h := range hs {
		if m.Resident(h.id) {
			resident += h.bytes
		}
	}
	if m.InUse() < 0 || m.InUse() > testMem {
		t.Fatalf("after %s: inUse = %d outside [0, %d]", after, m.InUse(), testMem)
	}
	if m.InUse() != resident+m.Held() {
		t.Fatalf("after %s: inUse = %d, want resident %d + held %d", after, m.InUse(), resident, m.Held())
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
		admit(m, h, sim.Span{})
		checkBudget(t, m, hs, "admit "+h.name)
	}
	m.Touch(hs[0].id) // h1 is now the coldest, then h2, then h0
	for _, step := range []struct{ in, victim *Handle }{{hs[3], hs[1]}, {hs[4], hs[2]}, {hs[1], hs[0]}} {
		admit(m, step.in, sim.Span{})
		checkBudget(t, m, hs, "admit "+step.in.name)
		if n := residentCount(m, hs); m.Resident(step.victim.id) || n != 3 {
			t.Fatalf("admitting %s left %d residents including %s, the least recently used",
				step.in.name, n, step.victim.name)
		}
	}
	if m.Err() != nil {
		t.Fatalf("evictions within capacity failed: %v", m.Err())
	}
}

func TestResidencyKeepSetIsNeverEvicted(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	a := g.NewHandle("a", 400<<10)
	b := g.NewHandle("b", 400<<10)
	c := g.NewHandle("c", 200<<10)
	for _, h := range []*Handle{a, b, c} {
		admit(m, h, sim.Span{})
	}
	// a and b are the coldest, but they belong to the task being placed.
	pin(m, &Task{Accesses: []Access{{a, Read}, {b, ReadWrite}}})
	m.Hold(200 << 10)
	checkBudget(t, m, []*Handle{a, b, c}, "hold")
	if m.Resident(c.id) {
		t.Error("the unpinned resident survived although room was needed")
	}
	if m.Err() != nil {
		t.Fatalf("hold that fits beside the keep-set failed: %v", m.Err())
	}
	// Nothing evictable is left: the keep-set alone overflows the device.
	m.Hold(400 << 10)
	if !errors.Is(m.Err(), gpu.ErrWorkingSet) {
		t.Fatalf("err = %v, want ErrWorkingSet", m.Err())
	}
	for _, h := range []*Handle{a, b} {
		if !m.Resident(h.id) {
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
	admit(m, a, sim.Span{})
	pin(m, &Task{Accesses: []Access{{a, Read}}})
	pin(m, &Task{Accesses: []Access{{b, Write}}})
	admit(m, b, sim.Span{})
	m.Hold(300 << 10)
	if m.Err() != nil || m.Resident(a.id) || !m.Resident(b.id) {
		t.Fatalf("err %v, a resident %v, b resident %v: want a evicted for the hold and b kept",
			m.Err(), m.Resident(a.id), m.Resident(b.id))
	}
}

func TestResidencyDirtyVictimIsWrittenBackOnce(t *testing.T) {
	m, el := newTestResidency()
	g := New()
	a := g.NewHandle("a", 600<<10)
	b := g.NewHandle("b", 600<<10)
	kernel := sim.Span{Start: 1, End: 2}
	admit(m, a, kernel)
	m.MarkDirty(a.id, kernel)
	admit(m, b, sim.Span{}) // does not fit beside a
	checkBudget(t, m, []*Handle{a, b}, "admit b")
	if m.Resident(a.id) {
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
	out, end := m.WrittenBack()
	if out != a.bytes {
		t.Errorf("written back %d bytes, want the victim's %d", out, a.bytes)
	}
	if end != spans[0].End {
		t.Errorf("write-back end = %v, want the download's end %v", end, spans[0].End)
	}
	// A clean victim costs no transfer.
	admit(m, a, sim.Span{})
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
	admit(m, a, sim.Span{End: 1})
	m.MarkDirty(a.id, sim.Span{End: 1})
	admit(m, b, sim.Span{})
	late := sim.Span{Start: 2, End: 3}
	admit(m, a, late)
	checkBudget(t, m, []*Handle{a, b}, "re-admit a")
	if want := a.bytes + b.bytes; m.InUse() != want {
		t.Fatalf("inUse = %d after re-admitting a resident handle, want %d", m.InUse(), want)
	}
	if _, sp := m.Touch(a.id); sp != late || m.Dirty(a.id) {
		t.Fatalf("re-admitted copy produced by %v, dirty %v: want a clean copy produced by %v", sp, m.Dirty(a.id), late)
	}
	// Room for one more copy than fits: the least recently used goes.
	m.Hold(testMem - a.bytes)
	if m.Resident(b.id) || !m.Resident(a.id) {
		t.Error("re-admitting did not make the handle the most recently used")
	}
	if n := len(el.GPU.DMA.Spans()); n != 0 {
		t.Errorf("re-admitting booked %d transfers, want none", n)
	}
	m.Release()
	m.Drop(a.id)
	m.Drop(b.id)
	if m.InUse() != 0 {
		t.Errorf("inUse = %d with nothing resident", m.InUse())
	}
}

// TestResidencyBudgetHoldsUnderRandomTraffic drives every mutating call in
// random order and checks the byte budget after each one.
func TestResidencyBudgetHoldsUnderRandomTraffic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		m, el := newTestResidency()
		rng := sim.NewRNG(seed)
		g := New()
		hs := make([]*Handle, 12)
		for i := range hs {
			hs[i] = g.NewHandle(fmt.Sprintf("h%d", i), int64(1+rng.Intn(300))<<10)
		}
		for step := 0; step < 400 && m.Err() == nil; step++ {
			h := hs[rng.Intn(len(hs))]
			resident := m.Resident(h.id)
			var op string
			switch k := rng.Intn(9); {
			case k == 0:
				op = "pin"
				pin(m, &Task{Accesses: []Access{{h, Read}, {hs[rng.Intn(len(hs))], Write}}})
			case k == 1:
				op = "admit"
				admit(m, h, sim.Span{})
			case k == 2 && !resident:
				op = "upload"
				m.Evict(h.bytes)
				admit(m, h, el.GPU.UploadBytes(h.bytes, sim.Time(step)))
			case k == 3:
				op = "hold"
				m.Hold(int64(rng.Intn(200)) << 10)
			case k == 4:
				op = "release"
				m.Release()
			case k == 5:
				op = "drop"
				m.Drop(h.id)
			case k == 6 && resident:
				op = "dirty+touch"
				_, sp := m.Touch(h.id)
				m.MarkDirty(h.id, sp)
			case k == 7 && m.Dirty(h.id):
				op = "writeBack"
				m.WriteBack(h.id)
			case k == 8 && rng.Intn(10) == 0:
				op = "reset"
				m.Release()
				m.Reset()
			default:
				continue
			}
			if m.Err() == nil {
				checkBudget(t, m, hs, fmt.Sprintf("seed %d step %d %s", seed, step, op))
			}
		}
		m.Release()
		m.Drain()
		for _, h := range hs {
			if m.Dirty(h.id) {
				t.Fatalf("seed %d: a copy is still dirty after the final drain", seed)
			}
		}
	}
}

func TestResidencyHeldBytesReleaseExactlyOnce(t *testing.T) {
	m, _ := newTestResidency()
	g := New()
	a := g.NewHandle("a", 100<<10)
	admit(m, a, sim.Span{})
	m.Hold(200 << 10)
	m.Hold(300 << 10)
	if want := int64(600 << 10); m.InUse() != want {
		t.Fatalf("inUse = %d with two shares held, want %d", m.InUse(), want)
	}
	m.Release()
	checkBudget(t, m, []*Handle{a}, "release")
	if want := int64(100 << 10); m.InUse() != want {
		t.Fatalf("inUse = %d after release, want the resident %d", m.InUse(), want)
	}
	m.Release() // nothing held: must not credit the bytes a second time
	checkBudget(t, m, []*Handle{a}, "second release")
	if want := int64(100 << 10); m.InUse() != want {
		t.Fatalf("inUse = %d after a second release, want %d", m.InUse(), want)
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
	admit(&r.res, tile, sim.Span{End: 1})
	r.res.MarkDirty(tile.id, sim.Span{End: 1})
	admit(&r.res, cached, sim.Span{})

	task := hybTask("upd", 256, 0.5, 3.0, 1.0)
	task.Accesses = []Access{{tile, ReadWrite}, {fresh, ReadWrite}, {cached, Read}}
	upd := &task
	c := r.estimate(upd, 1, true)
	if c.choose() != ClassHyb {
		t.Fatalf("candidates %+v did not favour the hybrid body", c)
	}
	b := r.book(upd, ClassHyb, &c, 1)
	if err := r.res.Err(); err != nil {
		t.Fatal(err)
	}
	if b.devRows != 128 {
		t.Fatalf("device half owns %d rows, want 128", b.devRows)
	}
	if r.res.Held() != 0 {
		t.Errorf("held = %d after the join, want 0", r.res.Held())
	}
	if r.res.Resident(tile.id) {
		t.Error("the stale device copy of the updated tile is still resident")
	}
	if r.res.Resident(fresh.id) {
		t.Error("a transient row share was registered resident")
	}
	// Only the cached read is left: everything else was charged and released.
	if want := cached.bytes; r.res.InUse() != want {
		t.Errorf("inUse = %d after the join, want %d", r.res.InUse(), want)
	}
	checkBudget(t, &r.res, []*Handle{tile, fresh, cached}, "hybrid booking")
}
