package taskgraph

import (
	"errors"
	"fmt"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/sim"
)

const testMem = int64(1 << 20)

// newTestResidency returns a manager over a 1 MiB device whose DMA engine
// records its bookings.
func newTestResidency() (*residency, *element.Element) {
	el := element.New(element.Config{Seed: 1, Virtual: true, GPUMem: testMem})
	el.GPU.DMA.SetRecording(true)
	m := newResidency(el.GPU, &Report{})
	return &m, el
}

// checkBudget asserts the manager's byte accounting after a call: never
// negative, never over the device, and exactly resident + held.
func checkBudget(t *testing.T, m *residency, after string) {
	t.Helper()
	var resident int64
	for _, re := range m.entries {
		resident += re.bytes
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
	m.touch(m.entries["h0"]) // h1 is now the coldest, then h2, then h0
	for _, step := range []struct {
		in     *Handle
		victim string
	}{{hs[3], "h1"}, {hs[4], "h2"}, {hs[1], "h0"}} {
		m.admit(step.in, sim.Span{})
		checkBudget(t, m, "admit "+step.in.name)
		if _, ok := m.entries[step.victim]; ok || len(m.entries) != 3 {
			t.Fatalf("admitting %s left %d residents including %s, the least recently used",
				step.in.name, len(m.entries), step.victim)
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
	if _, ok := m.entries["c"]; ok {
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
	for _, name := range []string{"a", "b"} {
		if _, ok := m.entries[name]; !ok {
			t.Errorf("pinned handle %s was evicted", name)
		}
	}
}

func TestResidencyDirtyVictimIsWrittenBackOnce(t *testing.T) {
	m, el := newTestResidency()
	g := New()
	a := g.NewHandle("a", 600<<10)
	b := g.NewHandle("b", 600<<10)
	kernel := sim.Span{Start: 1, End: 2}
	m.admit(a, kernel)
	m.entries["a"].dirty = true
	m.admit(b, sim.Span{}) // does not fit beside a
	checkBudget(t, m, "admit b")
	if _, ok := m.entries["a"]; ok {
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
			_, resident := m.entries[h.name]
			var op string
			switch k := rng.Intn(8); {
			case k == 0:
				op = "pin"
				m.pin(&Task{Accesses: []Access{{h, Read}, {hs[rng.Intn(len(hs))], Write}}})
			case k == 1 && !resident:
				op = "admit"
				m.admit(h, sim.Span{})
			case k == 2 && !resident:
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
				m.drop(h.name)
			case k == 6 && resident:
				op = "dirty+touch"
				m.touch(m.entries[h.name])
				m.entries[h.name].dirty = true
			case k == 7 && resident && m.entries[h.name].dirty:
				op = "writeBack"
				m.writeBack(m.entries[h.name])
			default:
				continue
			}
			if m.err == nil {
				checkBudget(t, m, fmt.Sprintf("seed %d step %d %s", seed, step, op))
			}
		}
		m.release()
		m.drain()
		for name, re := range m.entries {
			if re.dirty {
				t.Fatalf("seed %d: %s still dirty after the final drain", seed, name)
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
	r.res.entries["tile"].dirty = true
	r.res.admit(cached, sim.Span{})

	upd := hybTask("upd", tile, 256, 0.5, 3.0, 1.0)
	upd.Accesses = append(upd.Accesses, Access{fresh, ReadWrite}, Access{cached, Read})
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
	if _, ok := r.res.entries["tile"]; ok {
		t.Error("the stale device copy of the updated tile is still resident")
	}
	if _, ok := r.res.entries["fresh"]; ok {
		t.Error("a transient row share was registered resident")
	}
	// Only the cached read is left: everything else was charged and released.
	if want := cached.bytes; r.res.inUse != want {
		t.Errorf("inUse = %d after the join, want %d", r.res.inUse, want)
	}
	checkBudget(t, &r.res, "hybrid booking")
}
