package pipeline

import (
	"testing"
	"testing/quick"

	"tianhe/internal/gpu"
)

func TestPropertyPlanCoversAnyShape(t *testing.T) {
	f := func(mRaw, nRaw, kRaw uint16, tileRaw uint8, bounce bool) bool {
		m := int(mRaw)%5000 + 1
		n := int(nRaw)%5000 + 1
		k := int(kRaw)%5000 + 1
		tile := (int(tileRaw)%16 + 1) * 128
		p := NewPlan(m, n, k, tile, bounce)
		// Flops conservation.
		var sum float64
		seen := map[[2]int]bool{}
		area := 0
		for _, task := range p.Tasks {
			sum += taskFlops(task)
			key := [2]int{task.I, task.J}
			if seen[key] {
				return false
			}
			seen[key] = true
			area += task.M * task.N
			if task.M > tile || task.N > tile {
				return false
			}
			for _, st := range task.Steps {
				if st.K > tile || st.K <= 0 {
					return false
				}
			}
		}
		return sum == p.TotalFlops() && area == m*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBounceNeighborsShareBand(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		m := (int(mRaw)%6 + 1) * 512
		n := (int(nRaw)%6 + 1) * 512
		p := NewPlan(m, n, 512, 512, true)
		for i := 1; i < len(p.Tasks); i++ {
			prev, cur := p.Tasks[i-1], p.Tasks[i]
			if prev.I != cur.I && prev.J != cur.J {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyExecutorTimingSane(t *testing.T) {
	// For any options and shape: the makespan is at least the total kernel
	// time (the queue is a serial resource) and options never change flops.
	f := func(mRaw, nRaw, kRaw uint8, reuse, overlap, blocked bool) bool {
		m := int(mRaw)%3000 + 256
		n := int(nRaw)%3000 + 256
		k := int(kRaw)%3000 + 256
		dev := gpu.New(gpu.Config{Virtual: true})
		e := NewExecutor(dev, Options{
			Reuse: reuse, OverlapInput: overlap, BlockedEO: blocked,
			Tile: 1024, BlockRows: 128,
		})
		rep := e.ExecuteVirtual(m, n, k, 1, 0)
		if rep.Flops != 2*float64(m)*float64(n)*float64(k) {
			return false
		}
		return rep.Seconds() >= dev.Queue.Busy()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOptionsNeverSlowerThanAllOff(t *testing.T) {
	// Each technique may only help (or be neutral): the full pipeline must
	// never exceed the baseline makespan on any shape.
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m := int(mRaw)%4000 + 512
		n := int(nRaw)%4000 + 512
		k := int(kRaw)%4000 + 512
		run := func(o Options) float64 {
			dev := gpu.New(gpu.Config{Virtual: true})
			o.Tile = 1024
			o.BlockRows = 128
			return NewExecutor(dev, o).ExecuteVirtual(m, n, k, 1, 0).Seconds()
		}
		return run(Pipelined()) <= run(Options{})+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
