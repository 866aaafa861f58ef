// Package pipeline implements the software-pipelining technique of Section V:
// a large DGEMM is split into tasks that fit the GPU's 2D-resource limits,
// tasks are ordered by the "bounce corner turn" so resident operand tiles are
// reused, the next task's input overlaps the current task's execution (the
// CT/NT controller pair of Table I), and the output phase is fused into the
// execution phase through double-buffered row blocks (the EO stage, Fig. 6).
package pipeline

import (
	"fmt"
	"strconv"

	"tianhe/internal/perfmodel"
)

// TileID names one operand tile: which matrix it belongs to and its tile
// coordinates. The residency cache that implements operand reuse is indexed
// by it (operandIndex).
type TileID struct {
	Matrix byte // 'A', 'B' or 'C'
	Row    int  // tile row index
	Col    int  // tile column index
}

func (t TileID) String() string {
	return fmt.Sprintf("%c[%d,%d]", t.Matrix, t.Row, t.Col)
}

// Step is one accumulation step of a task: C(i,j) += A(i,k)*B(k,j).
type Step struct {
	KIdx int // tile index along K
	K    int // extent of this K slice
}

// Task computes one C tile. Tasks are mutually independent, which is what
// makes the pipeline legal.
type Task struct {
	Name string // T0, T1, ... in queue order after planning
	I, J int    // C tile coordinates
	M, N int    // C tile extents
	// RowOff and ColOff locate the tile inside the full matrices.
	RowOff, ColOff int
	Steps          []Step
}

// ATile returns the operand tile of A used at step s.
func (t *Task) ATile(s Step) TileID { return TileID{Matrix: 'A', Row: t.I, Col: s.KIdx} }

// BTile returns the operand tile of B used at step s.
func (t *Task) BTile(s Step) TileID { return TileID{Matrix: 'B', Row: s.KIdx, Col: t.J} }

// CTile returns the task's output tile.
func (t *Task) CTile() TileID { return TileID{Matrix: 'C', Row: t.I, Col: t.J} }

// Plan is the tiling of one DGEMM into a task queue.
type Plan struct {
	M, N, K                    int
	Tile                       int
	RowTiles, ColTiles, KTiles int
	Tasks                      []*Task
	// rows, cols and ks are the tile extents along M, N and K.
	rows, cols, ks []int
	// tasks and steps back Tasks and every task's Steps, and names holds
	// "T<i>" by paper index; reset reuses all three, so an executor that
	// re-plans into one Plan allocates only when a shape outgrows them.
	tasks []Task
	steps []Step
	names []string
}

// ChooseTile picks the largest tile extent that both respects the 2D texture
// limit and lets the worst-case working set (two resident operand tiles, two
// in-flight C tiles under the CT/NT overlap, plus the two H-row output
// buffers) fit in device memory. Tiles are rounded down to a multiple of 256
// for kernel friendliness.
func ChooseTile(textureLimit int, memBytes int64, blockRows int) int {
	t := textureLimit
	for t > 256 {
		working := 4*8*int64(t)*int64(t) + 2*8*int64(blockRows)*int64(t)
		if working <= memBytes {
			break
		}
		t -= 256
	}
	return t
}

// tileSizes splits extent into ceil(extent/tile) pieces, all of size tile
// except a possibly smaller last piece, reusing dst's storage.
func tileSizes(dst []int, extent, tile int) []int {
	n := (extent + tile - 1) / tile
	dst = append(dst[:0], make([]int, n)...)
	for i := range dst {
		dst[i] = tile
	}
	if r := extent % tile; r != 0 {
		dst[n-1] = r
	}
	return dst
}

// NewPlan tiles an M x N x K DGEMM with the given tile extent and orders the
// tasks. bounce selects the bounce-corner-turn serpentine ordering (Fig. 5:
// T0, T1, T3, T2); without it tasks run in row-major order, which re-loads
// the B column band at every row transition.
func NewPlan(m, n, k, tile int, bounce bool) *Plan {
	p := new(Plan)
	p.reset(m, n, k, tile, bounce)
	return p
}

// reset re-plans p in place as NewPlan(m, n, k, tile, bounce) would build it.
func (p *Plan) reset(m, n, k, tile int, bounce bool) {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("pipeline: degenerate DGEMM %dx%dx%d", m, n, k))
	}
	if tile <= 0 {
		tile = perfmodel.TextureLimit
	}
	rows := tileSizes(p.rows, m, tile)
	cols := tileSizes(p.cols, n, tile)
	ks := tileSizes(p.ks, k, tile)
	nTasks := len(rows) * len(cols)
	for i := len(p.names); i < nTasks; i++ {
		p.names = append(p.names, "T"+strconv.Itoa(i))
	}
	*p = Plan{
		M: m, N: n, K: k, Tile: tile,
		RowTiles: len(rows), ColTiles: len(cols), KTiles: len(ks),
		Tasks: p.Tasks[:0],
		rows:  rows, cols: cols, ks: ks,
		tasks: append(p.tasks[:0], make([]Task, nTasks)...),
		steps: append(p.steps[:0], make([]Step, nTasks*len(ks))...),
		names: p.names,
	}
	t := 0
	for i := 0; i < len(rows); i++ {
		jLo, jHi, jStep := 0, len(cols), 1
		if bounce && i%2 == 1 {
			jLo, jHi, jStep = len(cols)-1, -1, -1
		}
		for j := jLo; j != jHi; j += jStep {
			// Each task's steps are its own window of the shared store,
			// capped so an append to one cannot run into the next.
			steps := p.steps[t*len(ks) : (t+1)*len(ks) : (t+1)*len(ks)]
			task := &p.tasks[t]
			*task = Task{
				Name: p.names[taskPaperIndex(i, j, len(cols))],
				I:    i, J: j,
				M: rows[i], N: cols[j],
				RowOff: i * tile, ColOff: j * tile,
				Steps: steps,
			}
			// Serpentine over k as well: consecutive bounce-ordered tasks
			// alternate i+j parity, so alternating the k direction makes the
			// last tile one task touches the first tile the next one needs.
			kLo, kStep := 0, 1
			if bounce && (i+j)%2 == 1 {
				kLo, kStep = len(ks)-1, -1
			}
			for s := range steps {
				kk := kLo + s*kStep
				steps[s] = Step{KIdx: kk, K: ks[kk]}
			}
			p.Tasks = append(p.Tasks, task)
			t++
		}
	}
}

// taskPaperIndex names tasks the way the paper does: by row-major position
// in the C tiling (so the bounce order over a 2x2 split reads T0, T1, T3,
// T2 exactly as in Fig. 5).
func taskPaperIndex(i, j, colTiles int) int { return i*colTiles + j }

// TotalFlops returns the flops of the whole plan.
func (p *Plan) TotalFlops() float64 {
	return 2 * float64(p.M) * float64(p.N) * float64(p.K)
}

// TileBytes returns the size in bytes of the operand tile named by id.
func (p *Plan) TileBytes(id TileID) int64 {
	rows, cols := p.tileDims(id)
	return 8 * int64(rows) * int64(cols)
}

// operandIndex numbers the A tiles, then the B tiles, densely.
func (p *Plan) operandIndex(id TileID) int {
	if id.Matrix == 'A' {
		return id.Row*p.KTiles + id.Col
	}
	return p.RowTiles*p.KTiles + id.Row*p.ColTiles + id.Col
}

func (p *Plan) tileDims(id TileID) (rows, cols int) {
	switch id.Matrix {
	case 'A':
		return p.rows[id.Row], p.ks[id.Col]
	case 'B':
		return p.ks[id.Row], p.cols[id.Col]
	case 'C':
		return p.rows[id.Row], p.cols[id.Col]
	}
	panic("pipeline: unknown tile matrix " + string(id.Matrix))
}
