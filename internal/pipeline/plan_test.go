package pipeline

import (
	"testing"

	"tianhe/internal/perfmodel"
)

func TestChooseTileFitsMemory(t *testing.T) {
	tile := ChooseTile(perfmodel.TextureLimit, perfmodel.GPULocalMemBytes, 512)
	if tile > perfmodel.TextureLimit {
		t.Fatalf("tile %d exceeds texture limit", tile)
	}
	working := 3*8*int64(tile)*int64(tile) + 2*8*512*int64(tile)
	if working > perfmodel.GPULocalMemBytes {
		t.Fatalf("tile %d working set %d exceeds memory", tile, working)
	}
	if tile < 4096 {
		t.Fatalf("tile %d implausibly small for a 1 GiB device", tile)
	}
	if tile%256 != 0 {
		t.Fatalf("tile %d not aligned", tile)
	}
}

func TestChooseTileSmallDevice(t *testing.T) {
	tile := ChooseTile(8192, 64<<20, 128)
	if 3*8*int64(tile)*int64(tile)+2*8*128*int64(tile) > 64<<20 {
		t.Fatal("tile does not fit a 64 MiB device")
	}
}

func TestTileSizes(t *testing.T) {
	s := tileSizes(10000, 4096)
	if len(s) != 3 || s[0] != 4096 || s[1] != 4096 || s[2] != 1808 {
		t.Fatalf("tileSizes = %v", s)
	}
	if got := tileSizes(4096, 4096); len(got) != 1 || got[0] != 4096 {
		t.Fatalf("exact division: %v", got)
	}
	if tileSizes(0, 4) != nil {
		t.Fatal("zero extent must produce no tiles")
	}
}

func TestPlanSingleTask(t *testing.T) {
	p := NewPlan(1000, 1000, 1000, 4096, true)
	if len(p.Tasks) != 1 {
		t.Fatalf("small DGEMM should be one task, got %d", len(p.Tasks))
	}
	task := p.Tasks[0]
	if task.M != 1000 || task.N != 1000 || len(task.Steps) != 1 || task.Steps[0].K != 1000 {
		t.Fatalf("task shape wrong: %+v", task)
	}
}

func TestPlanFig5Split(t *testing.T) {
	// The paper's Fig. 5: a DGEMM twice the tile in M and N splits into four
	// tasks ordered T0, T1, T3, T2 by the bounce corner turn.
	p := NewPlan(8192, 8192, 4096, 4096, true)
	if p.RowTiles != 2 || p.ColTiles != 2 || p.KTiles != 1 {
		t.Fatalf("tiling %dx%dx%d", p.RowTiles, p.ColTiles, p.KTiles)
	}
	names := BounceOrderNames(p)
	want := []string{"T0", "T1", "T3", "T2"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("bounce order %v, want %v", names, want)
		}
	}
}

func TestPlanRowMajorWithoutBounce(t *testing.T) {
	p := NewPlan(8192, 8192, 4096, 4096, false)
	names := BounceOrderNames(p)
	want := []string{"T0", "T1", "T2", "T3"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("row-major order %v, want %v", names, want)
		}
	}
}

func TestBounceOrderSharesBandBetweenNeighbors(t *testing.T) {
	// Every consecutive task pair under the bounce corner turn must share
	// either the A row band or the B column band.
	p := NewPlan(3*1024, 4*1024, 1024, 1024, true)
	for i := 1; i < len(p.Tasks); i++ {
		prev, cur := p.Tasks[i-1], p.Tasks[i]
		if prev.I != cur.I && prev.J != cur.J {
			t.Fatalf("tasks %s and %s share no band", prev.Name, cur.Name)
		}
	}
}

func TestRowMajorBreaksBands(t *testing.T) {
	p := NewPlan(2*1024, 3*1024, 1024, 1024, false)
	broken := 0
	for i := 1; i < len(p.Tasks); i++ {
		prev, cur := p.Tasks[i-1], p.Tasks[i]
		if prev.I != cur.I && prev.J != cur.J {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("row-major order should break bands at row transitions")
	}
}

func TestKSerpentineReuse(t *testing.T) {
	// With multiple K tiles, the last K step of one task must equal the
	// first K step of the next (sharing the operand tile on the shared band).
	p := NewPlan(2*1024, 2*1024, 3*1024, 1024, true)
	for i := 1; i < len(p.Tasks); i++ {
		prev, cur := p.Tasks[i-1], p.Tasks[i]
		lastK := prev.Steps[len(prev.Steps)-1].KIdx
		firstK := cur.Steps[0].KIdx
		if lastK != firstK {
			t.Fatalf("tasks %s->%s: k serpentine broken (%d vs %d)", prev.Name, cur.Name, lastK, firstK)
		}
	}
}

// taskFlops is the operation count of one task over all its K steps.
func taskFlops(t *Task) float64 {
	var k int
	for _, s := range t.Steps {
		k += s.K
	}
	return 2 * float64(t.M) * float64(t.N) * float64(k)
}

func TestPlanFlopsConservation(t *testing.T) {
	p := NewPlan(5000, 3000, 2000, 1024, true)
	var sum float64
	for _, task := range p.Tasks {
		sum += taskFlops(task)
	}
	if total := p.TotalFlops(); sum != total {
		t.Fatalf("task flops %v != plan flops %v", sum, total)
	}
}

func TestPlanCoversMatrixExactly(t *testing.T) {
	p := NewPlan(2500, 1700, 900, 1024, true)
	covered := make(map[[2]int]bool)
	var area int
	for _, task := range p.Tasks {
		key := [2]int{task.I, task.J}
		if covered[key] {
			t.Fatalf("tile (%d,%d) produced twice", task.I, task.J)
		}
		covered[key] = true
		area += task.M * task.N
	}
	if area != 2500*1700 {
		t.Fatalf("covered area %d != %d", area, 2500*1700)
	}
}

func TestTileBytes(t *testing.T) {
	p := NewPlan(2500, 1700, 900, 1024, true)
	if got := p.TileBytes(TileID{Matrix: 'A', Row: 0, Col: 0}); got != 8*1024*900 {
		t.Fatalf("A[0,0] bytes = %d", got)
	}
	// The ragged last row tile of A has 2500-2*1024 = 452 rows.
	if got := p.TileBytes(TileID{Matrix: 'A', Row: 2, Col: 0}); got != 8*452*900 {
		t.Fatalf("A[2,0] bytes = %d", got)
	}
	if got := p.TileBytes(TileID{Matrix: 'C', Row: 0, Col: 1}); got != 8*1024*(1700-1024) {
		t.Fatalf("C[0,1] bytes = %d", got)
	}
}

func TestPlanDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate plan should panic")
		}
	}()
	NewPlan(0, 10, 10, 1024, true)
}

func TestTileIDString(t *testing.T) {
	if got := (TileID{Matrix: 'A', Row: 1, Col: 2}).String(); got != "A[1,2]" {
		t.Fatalf("TileID string %q", got)
	}
}
