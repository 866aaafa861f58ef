package experiments

import (
	"context"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/gpu"
	"tianhe/internal/hybrid"
	"tianhe/internal/linpacksim"
	"tianhe/internal/perfmodel"
	"tianhe/internal/pipeline"
	"tianhe/internal/sweep"
)

// Ablation studies for the design choices the paper makes implicitly: task
// ordering, EO block height, database granularity, staging strategy, tile
// extent and the Linpack blocking factor. Each returns the series Ledger
// records as rows. Every ablation point builds its own device/element, so the
// points run concurrently on par workers with output identical to the
// serial loop.

// AblationOrdering compares the bounce-corner-turn ordering against plain
// row-major task order on a multi-tile DGEMM: transferred gigabytes and
// virtual seconds.
func AblationOrdering(m, n, k int, par int) (bytesGB, seconds *Series) {
	type pt struct{ gb, sec float64 }
	res := sweep.Map(context.Background(), par, []bool{false, true}, func(_ int, bounce bool) pt {
		dev := gpu.New(gpu.Config{Virtual: true})
		// Reuse drives both the ordering and the cache; comparing Reuse
		// on/off isolates exactly the bounce-corner-turn machinery.
		e := pipeline.NewExecutor(dev, pipeline.Options{
			Reuse: bounce, OverlapInput: true, BlockedEO: true,
		})
		rep := e.ExecuteVirtual(m, n, k, 1, 0)
		return pt{gb: float64(rep.BytesIn) / 1e9, sec: rep.Seconds()}
	})
	bytesGB = &Series{Name: "input GB"}
	seconds = &Series{Name: "seconds"}
	for i, r := range res {
		bytesGB.Add(float64(i), r.gb)
		seconds.Add(float64(i), r.sec)
	}
	return bytesGB, seconds
}

// AblationBlockRows sweeps the EO block height H (Fig. 6): small blocks
// stream the output sooner but pay more DMA bookings; huge blocks converge
// to the unfused output.
func AblationBlockRows(hs []int, par int) *Series {
	if hs == nil {
		hs = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	return newSeries("GFLOPS", intXs(hs), sweep.Map(context.Background(), par, hs, func(_ int, h int) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := pipeline.NewExecutor(dev, pipeline.Options{
			Reuse: true, OverlapInput: true, BlockedEO: true, BlockRows: h,
		})
		return e.ExecuteVirtual(16384, 16384, 1216, 1, 0).GFLOPS()
	}))
}

// AblationBuckets sweeps database_g's item count J (Section IV.B): one
// bucket forces a single split for every workload; many buckets let each
// trailing-matrix size keep its own. Deterministic in seed.
func AblationBuckets(js []int, seed uint64, par int) *Series {
	if js == nil {
		js = []int{1, 2, 4, 16, 64, 256}
	}
	const n = 24320
	return newSeries("Linpack GFLOPS", intXs(js), sweep.Map(context.Background(), par, js, func(_ int, j int) float64 {
		el := element.New(element.Config{Seed: seed, Virtual: true})
		part := adaptive.NewAdaptive(j, 2.0/3.0*float64(n)*float64(n)*float64(n),
			el.InitialGSplit(), el.CPU.NumCores())
		res := linpacksim.Run(linpacksim.Config{
			N: n, Variant: element.ACMLGBoth, Seed: seed, Part: part,
		})
		return res.GFLOPS
	}))
}

// AblationStaging compares the three CPU-GPU transfer strategies of Section
// V.A on the Linpack ACMLG baseline: naive pageable, the faster pageable
// memcpy path, and the chunked pinned-pool staging. Deterministic in seed.
func AblationStaging(seed uint64, par int) *Series {
	transfers := []perfmodel.Transfer{
		perfmodel.NaiveTransfer(),
		perfmodel.PageableTransfer(),
		perfmodel.DefaultTransfer(),
	}
	return newSeries("Linpack GFLOPS", []float64{0, 1, 2}, sweep.Map(context.Background(), par, transfers, func(_ int, tr perfmodel.Transfer) float64 {
		el := element.New(element.Config{Seed: seed, Virtual: true, Transfer: tr})
		run := hybrid.New(el, element.ACMLG, nil)
		return run.GemmVirtual(24320, 24320, 1216, 1, 0).GFLOPS()
	}))
}

// StagingLabels names AblationStaging's x values.
var StagingLabels = []string{"naive pageable (0.5 GB/s)", "pageable memcpy (0.75 GB/s)", "pinned chunked (2.6 GB/s)"}

// AblationTile sweeps the task tile extent: tiny tiles waste kernel launches
// and transfer setup; the ceiling is what device memory admits.
func AblationTile(tiles []int, par int) *Series {
	if tiles == nil {
		tiles = []int{1024, 2048, 3072, 4096, 5376}
	}
	return newSeries("GFLOPS", intXs(tiles), sweep.Map(context.Background(), par, tiles, func(_ int, tile int) float64 {
		dev := gpu.New(gpu.Config{Virtual: true})
		e := pipeline.NewExecutor(dev, pipeline.Options{
			Reuse: true, OverlapInput: true, BlockedEO: true, Tile: tile,
		})
		return e.ExecuteVirtual(16384, 16384, 1216, 1, 0).GFLOPS()
	}))
}

// AblationNB sweeps the Linpack blocking factor around the paper's
// empirically chosen 1216 (Section VI.A: large blocks feed the GPU, too
// large hurts balance and panel cost). Deterministic in seed.
func AblationNB(nbs []int, seed uint64, par int) *Series {
	if nbs == nil {
		nbs = []int{196, 448, 704, 960, 1216, 1472, 1984, 2432}
	}
	return newSeries("Linpack GFLOPS", intXs(nbs), sweep.Map(context.Background(), par, nbs, func(_ int, nb int) float64 {
		n := 46080 - 46080%nb // keep whole blocks
		res := linpacksim.Run(linpacksim.Config{
			N: n, NB: nb, Variant: element.ACMLGBoth, Seed: seed,
		})
		return res.GFLOPS
	}))
}

// intXs converts an int sweep axis into the float64 x values of its series.
func intXs(vs []int) []float64 {
	xs := make([]float64, len(vs))
	for i, v := range vs {
		xs[i] = float64(v)
	}
	return xs
}
