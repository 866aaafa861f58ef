package pipeline

import (
	"slices"
	"testing"

	"tianhe/internal/fault"
	"tianhe/internal/gpu"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
	"tianhe/internal/telemetry"
)

// digestTile and digestBlockRows scale the digest matrix down to 64-wide
// tiles; tightMem is then exactly the working set ChooseTile sizes for (two
// resident operand tiles, two C tiles, the two H-row buffers), so the
// K-split cases evict, and roomyMem holds every tile of the largest case.
const (
	digestTile      = 64
	digestBlockRows = 32
	tightMem        = 4*8*digestTile*digestTile + 2*8*digestBlockRows*digestTile
	roomyMem        = 4 << 20
)

// digestCase is one cell of the executor digest matrix.
type digestCase struct {
	opts    Options
	m, n, k int
	beta    float64
	verify  bool
	seed    uint64
}

// runDigestCase executes one cell on a fresh device — with real data when
// real is set — and returns the report, the device, and the tracer its two
// timelines were attached to, which holds everything the run booked.
func runDigestCase(t *testing.T, c digestCase, mem int64, real bool) (Report, *gpu.Device, *telemetry.Tracer) {
	t.Helper()
	run := func(sdc *fault.Injector) (Report, *gpu.Device, *telemetry.Tracer) {
		dev := gpu.New(gpu.Config{Virtual: !real, MemBytes: mem, TextureLimit: digestTile})
		tel := telemetry.New()
		telemetry.AttachTimelines(tel, "resource", "", dev.Queue, dev.DMA)
		ex := NewExecutor(dev, c.opts)
		if c.verify {
			ex.EnableVerify(sdc)
		}
		if !real {
			return ex.ExecuteVirtual(c.m, c.n, c.k, c.beta, 0), dev, tel.Trace
		}
		r := sim.NewRNG(c.seed)
		a, b, cm := matrix.NewDense(c.m, c.k), matrix.NewDense(c.k, c.n), matrix.NewDense(c.m, c.n)
		a.FillRandom(r)
		b.FillRandom(r)
		cm.FillRandom(r)
		return ex.Execute(1, a, b, c.beta, cm, 0), dev, tel.Trace
	}
	if !c.verify {
		return run(nil)
	}
	clean, _, _ := run(nil)
	in, err := fault.NewScenario("sdc-single", clean.End, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	return run(in)
}

// reportInto folds every Report field into d.
func reportInto(d simtest.Digest, rep Report) {
	for _, v := range []float64{rep.Start, rep.End, rep.Flops, rep.VerifySeconds} {
		d.Float(v)
	}
	for _, v := range []int64{rep.BytesIn, rep.BytesOut, rep.BytesSkipped} {
		d.U64(uint64(v))
	}
	for _, v := range []int{rep.Tasks, rep.SDCDetected, rep.SDCCorrected, rep.SDCEscalated, rep.RecomputedTasks} {
		d.Int(v)
	}
}

// TestExecutorScheduleDigest pins everything the executor books, at exact
// equality: every DMA and command-queue span (label, start bits, end bits)
// and every Report field, for each of Section V's configurations over 1x1,
// 2x2 and 3x3 ragged tilings x K in one, two and three tiles x beta 0 and 1 x
// verification off and on under sdc-single, on a device that holds every tile
// and on one that holds exactly the working set ChooseTile sizes for (so the
// K-split cases evict). The digests were recorded on the commit before
// Schedule and run were rebuilt on one CT/NT controller, before executor.go
// was touched; change them only together with a deliberate schedule change.
//
// Each roomy cell also runs with real data, and that run must book the
// virtual one's timelines span for span and return the same Report: the
// paper-scale numbers all come from the virtual path and the arithmetic
// checks all run the real one.
func TestExecutorScheduleDigest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		want  uint64
		spans int
	}{
		{"baseline", Options{}, 0x95f593a481ae4f2f, 2662},
		{"reuse", Options{Reuse: true}, 0x560479913e1e8f3e, 2146},
		{"overlap", Options{OverlapInput: true}, 0x626d16a681984059, 2646},
		{"blocked-eo", Options{BlockedEO: true}, 0x5c53bb936a56872d, 2998},
		{"pipelined", Pipelined(), 0xf53e6038c8faf3c1, 2471},
	} {
		tc.opts.Tile, tc.opts.BlockRows = digestTile, digestBlockRows
		d := simtest.NewDigest()
		spans, corrected, seed := 0, 0, uint64(0)
		for tiles := 1; tiles <= 3; tiles++ {
			for kTiles := 1; kTiles <= 3; kTiles++ {
				for _, beta := range []float64{0, 1} {
					for _, verify := range []bool{false, true} {
						seed++
						c := digestCase{opts: tc.opts, m: tiles*digestTile - 8, n: tiles*digestTile - 24,
							k: kTiles*digestTile - 16, beta: beta, verify: verify, seed: seed}
						for _, mem := range []int64{roomyMem, tightMem} {
							rep, dev, tr := runDigestCase(t, c, mem, false)
							spans += d.Timeline(tr, "", dev.Queue) + d.Timeline(tr, "", dev.DMA)
							reportInto(d, rep)
							corrected += rep.SDCCorrected
							if mem != roomyMem {
								continue
							}
							repR, devR, trR := runDigestCase(t, c, mem, true)
							if repR != rep {
								t.Errorf("%s %+v: real report %+v, virtual %+v", tc.name, c, repR, rep)
							}
							if real, virt := trR.Events(), tr.Events(); !slices.Equal(real, virt) {
								t.Errorf("%s %+v: real bookings differ from virtual:\n%v\n%v", tc.name, c, real, virt)
							}
							if devR.MemUsed() != 0 {
								t.Errorf("%s %+v: %d device bytes still allocated at return", tc.name, c, devR.MemUsed())
							}
						}
					}
				}
			}
		}
		if corrected == 0 {
			t.Errorf("%s: sdc-single corrected nothing — the verify arm pins no recompute", tc.name)
		}
		if got := d.Sum64(); got != tc.want || spans != tc.spans {
			t.Errorf("%s: digest %#016x over %d spans, want %#016x over %d", tc.name, got, spans, tc.want, tc.spans)
		}
	}
}
