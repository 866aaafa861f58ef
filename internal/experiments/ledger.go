package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"tianhe/internal/adaptive"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/linpacksim"
	"tianhe/internal/perfmodel"
	"tianhe/internal/telemetry"
)

// Row is one line of the paper-fidelity ledger (BENCH_paper.json): a
// quantity the evaluation reports, the paper's value where the paper gives
// one, and what this reproduction measures. Paper holds a float64 or a
// bool; Measured a number, a bool or, for a set of ranks, a list of them.
// DevPct is set only when both are numbers.
type Row struct {
	ID       string   `json:"id"`
	Figure   string   `json:"figure"`
	Quantity string   `json:"quantity"`
	Unit     string   `json:"unit"`
	Paper    any      `json:"paper,omitempty"`
	Measured any      `json:"measured"`
	DevPct   *float64 `json:"dev_pct,omitempty"`
	Band     *Band    `json:"band,omitempty"`
	Reason   string   `json:"reason,omitempty"`
}

// Band is the range a row's measured value must stay in; a nil end is
// unbounded.
type Band struct {
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

func band(lo, hi float64) *Band { return &Band{Lo: &lo, Hi: &hi} }

func atLeast(lo float64) *Band { return &Band{Lo: &lo} }

// The known deviations of EXPERIMENTS.md that rows cite.
const (
	deviation1 = "known deviation 1: the ACMLG baseline leaves more host capacity idle than ACML-GPU did"
	deviation2 = "known deviation 2: the endgame overhead is one aggregate per-iteration constant"
	deviation3 = "known deviation 3: conservative communication/overhead calibration at scale"
)

// perfmodelInput is the reason of a row that restates a perfmodel constant
// set to the paper's value: it cannot deviate, so it carries no band.
const perfmodelInput = "perfmodel input: the constant is set to the paper's value"

// paperRows is the paper's side of the ledger, and the one place a band is
// declared: the paper's value, the accepted band, and why a known deviation
// misses. A bool row with Paper true is a claim that must hold; a numeric
// Paper carries a Band, a Reason, or both. Every ID names a row Ledger
// measures.
var paperRows = []Row{
	{ID: "fig8.gain.adaptive", Paper: 0.1464, Band: band(0.10, 0.22), Reason: deviation1},
	{ID: "fig8.gain.pipe_above_8192", Paper: 0.0761, Band: band(0.04, 0.15)},
	{ID: "fig8.gain.both_above_8192", Paper: 0.2219, Band: band(0.15, 0.32)},
	{ID: "fig8.pipe_gain_grows_above_8192", Paper: true},
	{ID: "fig8.ordered_every_n", Paper: true},
	{ID: "fig9.cpu.n46080", Paper: 35.8, Band: band(32, 40)},
	{ID: "fig9.acmlg.n46080", Paper: 59.2, Band: band(53, 65)},
	{ID: "fig9.acmlg.peak_fraction", Paper: 0.211, Band: band(0.19, 0.23)},
	{ID: "fig9.both.n46080", Paper: 196.7, Band: band(180, 215)},
	{ID: "fig9.both.over_acmlg", Paper: 3.3, Band: band(2.8, 4.2)},
	{ID: "fig9.both.over_cpu", Paper: 5.49, Band: band(4.5, 6.5)},
	{ID: "fig9.both.peak_fraction", Paper: 0.701, Band: band(0.62, 0.80)},
	{ID: "fig10.initial", Paper: 0.889, Band: band(0.80, 0.98)},
	{ID: "fig10.small_deviates_more", Paper: true},
	{ID: "fig11.advantage.p64", Paper: 0.1556, Band: band(0.08, 0.25)},
	{ID: "fig11.advantage_grows", Paper: true},
	{ID: "fig11.training_hours", Paper: 2.0, Reason: perfmodelInput},
	{ID: "fig11.cabinet_kw", Paper: 18.5, Reason: perfmodelInput},
	{ID: "fig11.training_kwh.c1", Paper: 37.0, Reason: perfmodelInput},
	{ID: "fig11.training_kwh.c80", Paper: 2960.0, Reason: perfmodelInput},
	{ID: "fig12.tflops.c1", Paper: 8.02, Band: band(7, 9)},
	{ID: "fig12.tflops.c80", Paper: 563.1, Band: band(480, 620), Reason: deviation3},
	{ID: "fig12.efficiency", Paper: 0.8776, Band: band(0.78, 0.95), Reason: deviation3},
	{ID: "fig12.green500", Paper: 379.24, Reason: deviation3},
	{ID: "fig13.tflops.p97_17", Paper: 604.74, Reason: deviation2},
	{ID: "fig13.final", Paper: 563.1, Reason: deviation3},
	{ID: "fig13.endgame_drop", Paper: 41.6, Band: atLeast(5), Reason: deviation2},
	{ID: "fig13.final_below_p97_17", Paper: true},
}

// ledger accumulates measured rows under the current figure.
type ledger struct {
	figure string
	rows   []Row
}

func (l *ledger) add(id, quantity, unit string, measured any) {
	l.rows = append(l.rows, Row{ID: id, Figure: l.figure, Quantity: quantity, Unit: unit, Measured: measured})
}

// variantSlug names element.Variants in row IDs.
var variantSlug = []string{"cpu", "acmlg", "adaptive", "pipe", "both"}

// Ledger runs every figure of Section VI once — Figs 8–13, the
// training-energy and Green500 accounting, ablations 1–7 and the ABFT
// overhead table — then the graph-LU study, the serving sweeps, the fault
// scenarios (fault.* rows), the silent-data-corruption sweeps (sdc.*) and
// the elastic-recovery comparison (elastic.*), and returns one row per
// reported number, annotated from paperRows. The rows are deterministic in
// seed and identical for every par; tel (nil for none) records the Fig. 8,
// 9 and 10 runs and the fault, sdc and elastic runs, and changes no row.
// The error is a run that failed, or one that broke its contract:
// ServeVerdict, LostGPUVerdict, SDCVerdict (sdc-single, sdc-dma) or
// ElasticVerdict.
func Ledger(seed uint64, par int, tel *telemetry.Telemetry) ([]Row, error) {
	l := &ledger{}
	l.fig8(Fig8Instrumented(seed, nil, tel, par))
	l.fig9(Fig9Instrumented(seed, nil, tel, par))
	// Fig. 10 records into a bundle of its own so that its GSplit series
	// holds this run's updates alone, not those of the adaptive Fig. 8/9
	// runs sharing tel.
	own := telemetry.New()
	entries, initial := Fig10Instrumented(seed, 46080, own)
	l.fig10(entries, initial, own.Tracer().Series("adaptive.gsplit"))
	tel.Merge(own)
	l.fig11(Fig11(seed, nil, par))
	tflops, progress := Fig12(seed, nil, par)
	l.fig12(tflops)
	l.fig13(progress)
	l.ablations(seed, par)
	l.graphLU(GraphLU(seed, 46080, nil, telemetry.Disabled(), par))
	if err := l.serve(seed, par); err != nil {
		return nil, err
	}
	if err := l.faults(seed, tel, par); err != nil {
		return nil, err
	}
	if err := l.sdc(seed, tel, par); err != nil {
		return nil, err
	}
	if err := l.elastic(seed, tel, par); err != nil {
		return nil, err
	}

	byID := make(map[string]int, len(l.rows))
	for i, r := range l.rows {
		byID[r.ID] = i
	}
	for _, p := range paperRows {
		i, ok := byID[p.ID]
		if !ok {
			panic("experiments: paper row " + p.ID + " has no measurement")
		}
		r := &l.rows[i]
		r.Paper, r.Band, r.Reason = p.Paper, p.Band, p.Reason
		if pv, ok := p.Paper.(float64); ok {
			dev := (r.Measured.(float64)/pv - 1) * 100
			r.DevPct = &dev
		}
	}
	return l.rows, nil
}

// variantRows adds one row per (variant, N) point of a Fig. 8 or 9 sweep.
func (l *ledger) variantRows(kind string, ss []*Series) {
	for v, s := range ss {
		for _, p := range s.Points {
			l.add(fmt.Sprintf("fig%s.%s.n%.0f", l.figure, variantSlug[v], p.X), fmt.Sprintf("%s %s, N=%.0f", s.Name, kind, p.X), "GFLOPS", p.Y)
		}
	}
}

func (l *ledger) fig8(ss []*Series) {
	l.figure = "8"
	l.variantRows("DGEMM", ss)
	acmlg, adapt, pipe, both := ss[element.ACMLG], ss[element.ACMLGAdaptive], ss[element.ACMLGPipe], ss[element.ACMLGBoth]
	big := func(x float64) bool { return x > 8192 }
	pipeBig, pipeSmall := pipe.GainOver(acmlg, big), pipe.GainOver(acmlg, func(x float64) bool { return !big(x) })
	l.add("fig8.gain.adaptive", "ACMLG+adaptive mean gain over ACMLG, all N", "ratio", adapt.GainOver(acmlg, nil))
	l.add("fig8.gain.pipe_above_8192", "ACMLG+pipe mean gain over ACMLG, N > 8192", "ratio", pipeBig)
	l.add("fig8.gain.both_above_8192", "ACMLG+both mean gain over ACMLG, N > 8192", "ratio", both.GainOver(acmlg, big))
	l.add("fig8.gain.pipe_to_8192", "ACMLG+pipe mean gain over ACMLG, N <= 8192", "ratio", pipeSmall)
	l.add("fig8.pipe_gain_grows_above_8192", "ACMLG+pipe gain above N=8192 exceeds the gain below it", "bool", pipeBig > pipeSmall)
	order := []element.Variant{element.CPUOnly, element.ACMLG, element.ACMLGPipe, element.ACMLGAdaptive, element.ACMLGBoth}
	ordered := true
	for i := range ss[0].Points {
		for j := 1; j < len(order); j++ {
			ordered = ordered && ss[order[j-1]].Points[i].Y < ss[order[j]].Points[i].Y
		}
	}
	l.add("fig8.ordered_every_n", "CPU < ACMLG < +pipe < +adaptive < +both at every N", "bool", ordered)
}

func (l *ledger) fig9(ss []*Series) {
	l.figure = "9"
	l.variantRows("Linpack", ss)
	at := func(v element.Variant) float64 { y, _ := ss[v].Y(46080); return y }
	cpu, acmlg, both := at(element.CPUOnly), at(element.ACMLG), at(element.ACMLGBoth)
	l.add("fig9.acmlg.peak_fraction", "ACMLG Linpack at N=46080 over the element peak", "ratio", acmlg/perfmodel.ElementPeakGFLOPS)
	l.add("fig9.both.peak_fraction", "ACMLG+both Linpack at N=46080 over the element peak", "ratio", both/perfmodel.ElementPeakGFLOPS)
	l.add("fig9.both.over_acmlg", "ACMLG+both over ACMLG Linpack, N=46080", "x", both/acmlg)
	l.add("fig9.both.over_cpu", "ACMLG+both over CPU Linpack, N=46080", "x", both/cpu)
}

func (l *ledger) fig10(entries []adaptive.Entry, initial float64, gsplit []telemetry.Sample) {
	l.figure = "10"
	l.add("fig10.initial", "initial GSplit (peak ratio)", "ratio", initial)
	touched := 0
	var first, last float64
	for i, e := range entries {
		l.add(fmt.Sprintf("fig10.bucket%02d", i), fmt.Sprintf("GSplit for workload (%.1f, %.1f] Gflop", e.WorkLo/1e9, e.WorkHi/1e9), "ratio", e.Split)
		if e.Touched {
			if touched == 0 {
				first = e.Split
			}
			last = e.Split
			touched++
		}
	}
	l.add("fig10.touched_buckets", "database_g buckets the run adapted", "count", touched)
	l.add("fig10.small_deviates_more", "smallest touched bucket deviates from the initial GSplit more than the largest", "bool",
		touched > 0 && math.Abs(first-initial) > math.Abs(last-initial))
	l.add("fig10.updates", "GSplit updates over the run", "count", len(gsplit))
	// Sixteen evenly spaced samples of the evolution, plus the final one.
	step := max(len(gsplit)/16, 1)
	for i := 0; i < len(gsplit); i += step {
		l.gsplitSample(i, gsplit[i])
	}
	if last := len(gsplit) - 1; last >= 0 && last%step != 0 {
		l.gsplitSample(last, gsplit[last])
	}
}

func (l *ledger) gsplitSample(i int, s telemetry.Sample) {
	l.add(fmt.Sprintf("fig10.update%02d.t", i), fmt.Sprintf("virtual time of GSplit update %d", i), "s", s.T)
	l.add(fmt.Sprintf("fig10.update%02d.gsplit", i), fmt.Sprintf("GSplit after update %d", i), "ratio", s.V)
}

func (l *ledger) fig11(ours, qilin *Series) {
	l.figure = "11"
	for i, p := range ours.Points {
		q := qilin.Points[i].Y
		l.add(fmt.Sprintf("fig11.adaptive.p%.0f", p.X), fmt.Sprintf("adaptive mapping, P=%.0f", p.X), "GFLOPS", p.Y)
		l.add(fmt.Sprintf("fig11.trained.p%.0f", p.X), fmt.Sprintf("Qilin-trained mapping, P=%.0f", p.X), "GFLOPS", q)
		l.add(fmt.Sprintf("fig11.advantage.p%.0f", p.X), fmt.Sprintf("adaptive over Qilin-trained mapping, P=%.0f", p.X), "ratio", p.Y/q-1)
	}
	adv := func(p float64) float64 { o, _ := ours.Y(p); q, _ := qilin.Y(p); return o/q - 1 }
	l.add("fig11.advantage_grows", "advantage at 64 processes exceeds the advantage at 1", "bool", adv(64) > adv(1))
	l.add("fig11.training_hours", "Qilin training time per cabinet", "h", perfmodel.TrainingHours)
	l.add("fig11.cabinet_kw", "cabinet power under load", "kW", perfmodel.CabinetPowerKW)
	l.add("fig11.training_kwh.c1", "Qilin training energy, 1 cabinet", "kWh", perfmodel.TrainingEnergyKWh(1))
	l.add("fig11.training_kwh.c80", "Qilin training energy, 80 cabinets", "kWh", perfmodel.TrainingEnergyKWh(80))
}

func (l *ledger) fig12(s *Series) {
	l.figure = "12"
	for _, p := range s.Points {
		l.add(fmt.Sprintf("fig12.tflops.c%.0f", p.X), fmt.Sprintf("Linpack on %.0f cabinet(s)", p.X), "TFLOPS", p.Y)
	}
	one, _ := s.Y(1)
	eighty, _ := s.Y(80)
	l.add("fig12.efficiency", "80-cabinet TFLOPS over 80 x one cabinet", "ratio", eighty/(80*one))
	l.add("fig12.green500", "measured 80-cabinet Linpack over 80 cabinets' power", "MFLOPS/W",
		eighty*1e6/(perfmodel.SystemPowerKW(80)*1e3))
}

// fig13Marks are the progress fractions the ledger samples Fig. 13 at.
var fig13Marks = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.9717, 0.99}

func (l *ledger) fig13(pts []cluster.ProgressPoint) {
	l.figure = "13"
	// at returns the first sample at or past the given progress.
	at := func(mark float64) (cluster.ProgressPoint, bool) {
		for _, p := range pts {
			if p.Frac >= mark {
				return p, true
			}
		}
		return cluster.ProgressPoint{}, false
	}
	for _, mark := range fig13Marks {
		if p, ok := at(mark); ok {
			pct := fmt.Sprintf("%.4g", mark*100)
			name := "p" + strings.ReplaceAll(pct, ".", "_")
			l.add("fig13.progress."+name, "progress of the first sample at or past "+pct+"%", "ratio", p.Frac)
			l.add("fig13.tflops."+name, "cumulative Linpack at "+pct+"% progress", "TFLOPS", p.CumTFLOPS)
		}
	}
	p97, _ := at(0.9717)
	at97, final := p97.CumTFLOPS, pts[len(pts)-1].CumTFLOPS
	l.add("fig13.final", "cumulative Linpack at completion", "TFLOPS", final)
	l.add("fig13.endgame_drop", "cumulative Linpack lost from 97.17% progress to completion", "TFLOPS", at97-final)
	l.add("fig13.final_below_p97_17", "cumulative Linpack at completion is below its value at 97.17%", "bool", final < at97)
}

func (l *ledger) ablations(seed uint64, par int) {
	l.figure = "ablation"
	gb, sec := AblationOrdering(16384, 16384, 4096, par)
	for i, order := range []string{"row_major", "bounce"} {
		l.add("ablation1.input_gb."+order, "input bytes moved, "+order+" task order", "GB", gb.Points[i].Y)
		l.add("ablation1.seconds."+order, "DGEMM 16384x16384x4096, "+order+" task order", "s", sec.Points[i].Y)
	}
	l.sweepRows("ablation2.h", "EO block height H=%.0f rows, DGEMM 16384x16384x1216", AblationBlockRows(nil, par))
	l.sweepRows("ablation3.j", "database_g with J=%.0f buckets, Linpack N=24320", AblationBuckets(nil, seed, par))
	for i, p := range AblationStaging(seed, par).Points {
		l.add(fmt.Sprintf("ablation4.staging%d", i), StagingLabels[i]+", ACMLG 24320x24320x1216", "GFLOPS", p.Y)
	}
	l.sweepRows("ablation5.tile", "task tile %.0f, DGEMM 16384x16384x1216", AblationTile(nil, par))
	l.sweepRows("ablation6.nb", "Linpack blocking factor NB=%.0f, N near 46080", AblationNB(nil, seed, par))
	for _, xeon := range []perfmodel.Xeon{perfmodel.XeonE5540, perfmodel.XeonE5450} {
		r := Level2Study(xeon, seed)
		id := "ablation7." + strings.ToLower(xeon.String())
		l.add(id+".equal_s", xeon.String()+" CPU-side makespan, equal core splits", "s", r.EqualSeconds)
		l.add(id+".adaptive_s", xeon.String()+" CPU-side makespan, database_c splits", "s", r.AdaptiveSeconds)
		l.add(id+".gain", xeon.String()+" equal over adaptive makespan, minus 1", "ratio", r.Gain)
		for c, s := range r.Splits {
			l.add(fmt.Sprintf("%s.split.core%d", id, c), fmt.Sprintf("%s converged database_c split, core %d", xeon, c), "ratio", s)
		}
	}
	l.figure = "abft"
	for _, c := range ABFTOverhead(seed, []int{4864, 9728, 19456}, par) {
		id := fmt.Sprintf("abft.n%d", c.N)
		l.add(id+".base_s", fmt.Sprintf("Linpack N=%d, unverified", c.N), "s", c.BaseSeconds)
		l.add(id+".checks_s", fmt.Sprintf("checksum time booked, Linpack N=%d", c.N), "s", c.VerifySeconds)
		l.add(id+".overhead_pct", fmt.Sprintf("verified makespan over unverified, Linpack N=%d", c.N), "%", c.OverheadPct)
	}
}

// sweepRows adds one row per point of an ablation sweep.
func (l *ledger) sweepRows(prefix, quantity string, s *Series) {
	for _, p := range s.Points {
		l.add(fmt.Sprintf("%s%.0f", prefix, p.X), fmt.Sprintf(quantity, p.X), "GFLOPS", p.Y)
	}
}

// graphLU adds the graph-LU study: each scheduling mode's makespan, rate
// and gain over the monolithic loop.
func (l *ledger) graphLU(cells []GraphLUCell) {
	l.figure = "graphlu"
	slug := strings.NewReplacer("graph-", "", "+", "_")
	for _, c := range cells {
		id := "graphlu." + slug.Replace(c.Mode)
		l.add(id+".seconds", "Linpack N=46080 makespan, "+c.Mode, "s", c.Seconds)
		l.add(id+".gflops", "Linpack N=46080, "+c.Mode, "GFLOPS", c.GFLOPS)
		l.add(id+".gain_pct", "Linpack N=46080 gain over monolithic, "+c.Mode, "%", c.GainPct)
	}
}

// serve adds the serving sweeps: 1200 open-loop clients on
// serve.DefaultWorkers elements at every DefaultServeRates point, healthy and
// under lost-gpu, each held to ServeVerdict, then the healthy saturation.
func (l *ledger) serve(seed uint64, par int) error {
	l.figure = "serve"
	var healthy []ServePoint
	for _, scenario := range []string{"healthy", "lost-gpu"} {
		cfg := ServeConfig{Seed: seed, Scenario: scenario, Clients: 1200}
		points, err := ServeSweep(cfg, telemetry.Disabled(), par)
		if err == nil {
			err = ServeVerdict(points, scenario)
		}
		if err != nil {
			return fmt.Errorf("%s serving sweep: %w", scenario, err)
		}
		l.servePoints(scenario, points)
		if scenario == "healthy" {
			healthy = points
		}
	}
	rate, peak := Saturation(healthy)
	l.add("serve.saturation_rate", "lowest offered rate that saturates the healthy service", "jobs/s", rate)
	l.add("serve.peak_throughput", "highest sustained healthy throughput", "jobs/s", peak)
	return nil
}

// servePoints adds one sweep's rows: each point's counts, rates and
// latencies, then each tenant's.
func (l *ledger) servePoints(scenario string, points []ServePoint) {
	for _, p := range points {
		id := fmt.Sprintf("serve.%s.r%.0f.", strings.ReplaceAll(scenario, "-", "_"), p.Rate)
		at := fmt.Sprintf(", %s, %.0f jobs/s offered", scenario, p.Rate)
		add := func(field, quantity, unit string, v any) { l.add(id+field, quantity+at, unit, v) }
		add("arrivals", "jobs arrived", "count", p.Arrivals)
		add("admitted", "jobs admitted", "count", p.Admitted)
		add("rejected", "jobs rejected at admission", "count", p.Rejected)
		add("completed", "jobs completed", "count", p.Completed)
		add("failed", "admitted jobs never completed", "count", p.Failed)
		add("batches", "batches dispatched", "count", p.Batches)
		add("drains", "batches a device outage drained back into the queue", "count", p.Drains)
		add("mean_batch_jobs", "mean jobs per batch", "jobs", p.MeanBatchJobs)
		add("throughput", "sustained throughput", "jobs/s", p.Throughput)
		add("p50_s", "median latency", "s", p.P50Seconds)
		add("p99_s", "99th-percentile latency", "s", p.P99Seconds)
		add("makespan_s", "makespan", "s", p.Makespan)
		if scenario != "healthy" {
			add("healthy_throughput", "throughput of the same trace on a healthy service", "jobs/s", p.HealthyThroughput)
			add("degradation_pct", "throughput lost to the fault", "%", p.DegradationPct)
		}
		for _, ts := range p.Tenants {
			id := id + ts.Tenant + "."
			at := fmt.Sprintf(", tenant %s%s", ts.Tenant, at)
			l.add(id+"completed", "jobs completed"+at, "count", ts.Completed)
			l.add(id+"rejected", "jobs rejected at admission"+at, "count", ts.Rejected)
			l.add(id+"p50_s", "median latency"+at, "s", ts.P50Seconds)
			l.add(id+"p99_s", "99th-percentile latency"+at, "s", ts.P99Seconds)
		}
	}
}

// The sizes of the fault rows: each policy sweep runs faultOps GEMMs of
// order faultN, and the element-fail and sdc-* scenarios a Linpack of order
// faultLinpackN.
const faultN, faultOps, faultLinpackN = 8192, 48, 19456

// faults adds the timing-fault scenarios: every policy of each FaultSweep
// (the lost-gpu one held to LostGPUVerdict), the healthy sweep's hook
// overhead, the flaky-net MPI storm and the element-fail restarts.
func (l *ledger) faults(seed uint64, tel *telemetry.Telemetry, par int) error {
	l.figure = "fault"
	for _, scenario := range []string{"healthy", "degraded-gpu", "lost-gpu", "jitter-storm"} {
		cells, err := FaultSweep(scenario, seed, faultN, faultOps, tel, par)
		if err == nil && scenario == "lost-gpu" {
			err = LostGPUVerdict(cells)
		}
		if err != nil {
			return fmt.Errorf("%s fault sweep: %w", scenario, err)
		}
		l.faultCells(scenario, cells)
	}

	net, err := NetStorm(seed, 16, 12, tel)
	if err != nil {
		return fmt.Errorf("flaky-net storm: %w", err)
	}
	at := fmt.Sprintf(", %d ranks, %d collective rounds", net.Ranks, net.Rounds)
	l.add("fault.flaky_net.healthy_s", "makespan on a healthy fabric"+at, "s", net.HealthySeconds)
	l.add("fault.flaky_net.fault_s", "makespan on the flaky fabric"+at, "s", net.FaultSeconds)
	l.add("fault.flaky_net.slowdown_pct", "flaky-fabric makespan over healthy"+at, "%", net.SlowdownPct)
	l.add("fault.flaky_net.drops", "messages dropped"+at, "count", net.Drops)
	l.add("fault.flaky_net.retries", "messages retried"+at, "count", net.Retries)

	f := Failover(seed, faultLinpackN, tel, par)
	at = fmt.Sprintf(", Linpack N=%d, element failure at half the healthy makespan", f.N)
	l.linpackArm("fault.element_fail.healthy.", "healthy run"+at, f.Healthy)
	for _, arm := range []struct {
		id, what string
		res      linpacksim.Result
		pct      float64
	}{
		{"fault.element_fail.scratch.", "restart from iteration zero" + at, f.Scratch, f.ScratchPct},
		{"fault.element_fail.checkpointed.", "restart from per-iteration checkpoints" + at, f.Checkpointed, f.CheckpointPct},
	} {
		l.linpackArm(arm.id, arm.what, arm.res)
		l.add(arm.id+"slowdown_pct", "makespan over healthy, "+arm.what, "%", arm.pct)
		l.add(arm.id+"redone", "iterations redone, "+arm.what, "count", arm.res.RedoneIterations)
	}
	l.add("fault.element_fail.checkpointed.checkpoint_s", "time spent writing checkpoints"+at, "s", f.Checkpointed.CheckpointSeconds)
	return nil
}

// faultCells adds one FaultSweep's rows: per policy, the reference and
// faulted steady states, the trough, the recovery or the stall, and the
// operations done.
func (l *ledger) faultCells(scenario string, cells []FaultCell) {
	slug := strings.NewReplacer("-", "_")
	for _, c := range cells {
		id := "fault." + slug.Replace(scenario) + "." + slug.Replace(c.Policy) + "."
		at := fmt.Sprintf(", %s, %s, %d GEMMs of order %d", c.Policy, scenario, c.OpsTotal, faultN)
		l.add(id+"healthy_gflops", "steady state of the fault-free reference"+at, "GFLOPS", c.HealthySS)
		l.add(id+"steady_gflops", "steady state under the fault"+at, "GFLOPS", c.SteadySS)
		l.add(id+"delta_pct", "steady state under the fault over the reference's"+at, "%", 100*(c.SteadySS-c.HealthySS)/c.HealthySS)
		l.add(id+"trough_gflops", "slowest operation under the fault"+at, "GFLOPS", c.TroughOp)
		if c.RecoverySec != 0 && !c.Stalled {
			l.add(id+"recovery_s", fmt.Sprintf("time from GPU restore to regaining %.0f%% of the reference steady state, -1 if never", 100*RecoveryThreshold)+at, "s", c.RecoverySec)
		}
		l.add(id+"stalled", "run died on the lost GPU context"+at, "bool", c.Stalled)
		if c.Stalled {
			l.add(id+"stall_s", "virtual time of the fatal submission"+at, "s", c.StallAtSec)
		}
		l.add(id+"ops_done", "operations completed"+at, "count", c.OpsDone)
	}
	if scenario == "healthy" {
		for _, c := range cells {
			if c.Policy == "adaptive" {
				l.add("fault.healthy.hook_overhead_pct", "virtual-time overhead of an empty injector on every hook, adaptive", "%", c.OverheadPct)
			}
		}
	}
}

// sdc adds the silent-data-corruption sweeps at Linpack N=faultLinpackN:
// each arm's makespan and rate, the strike accounting and the real-LU
// evidence. sdc-single and sdc-dma are held to SDCVerdict; sdc-burst is the
// escalation drill, and its claim is a row: every strike escalated to a
// checkpoint restore and the run still finished.
func (l *ledger) sdc(seed uint64, tel *telemetry.Telemetry, par int) error {
	l.figure = "sdc"
	for _, scenario := range []string{"sdc-single", "sdc-dma", "sdc-burst"} {
		r, err := SDCSweep(scenario, seed, faultLinpackN, tel, par)
		if err == nil && scenario != "sdc-burst" {
			err = SDCVerdict(r)
		}
		if err != nil {
			return fmt.Errorf("%s sweep: %w", scenario, err)
		}
		id := "sdc." + strings.TrimPrefix(scenario, "sdc-") + "."
		at := fmt.Sprintf(", %s, Linpack N=%d", scenario, r.N)
		l.linpackArm(id+"unprotected.", "unprotected"+at, r.Healthy)
		l.linpackArm(id+"verified.", "verified, no corruption"+at, r.VerifyClean)
		l.add(id+"verified.overhead_pct", "verified makespan over unprotected, no corruption"+at, "%", r.OverheadPct)
		l.add(id+"verified.checks_s", "checksum time booked, no corruption"+at, "s", r.VerifyClean.VerifySeconds)
		l.linpackArm(id+"faulted.", "verified, under corruption"+at, r.Faulted)
		l.add(id+"faulted.slowdown_pct", "verified makespan under corruption over unprotected"+at, "%", r.FaultedPct)
		f := r.Faulted
		l.add(id+"injected", "strikes injected"+at, "count", r.Injected)
		l.add(id+"detected", "strikes detected"+at, "count", f.SDCDetected)
		l.add(id+"recomputed", "strikes repaired by recomputing the struck task"+at, "count", f.SDCCorrected)
		l.add(id+"escalated", "strikes escalated to a checkpoint restore"+at, "count", f.SDCEscalated)
		l.add(id+"restores", "checkpoint restores"+at, "count", f.SDCRestores)
		l.add(id+"redone", "iterations redone"+at, "count", f.RedoneIterations)
		l.add(id+"corrected_frac", "detected strikes repaired without a restore"+at, "ratio", r.CorrectedFrac())
		if scenario == "sdc-burst" {
			l.add(id+"escalation_drill", "every strike detected and escalated to a checkpoint restore, and the run finished"+at, "bool",
				r.Injected > 0 && int64(f.SDCDetected) == r.Injected && f.SDCEscalated == f.SDCDetected && f.Err == nil)
		}
		at = fmt.Sprintf(", real LU N=%d with bit flips, %s", r.RealN, scenario)
		l.add(id+"real.updates", "trailing updates"+at, "count", r.RealUpdates)
		l.add(id+"real.injected", "updates corrupted"+at, "count", r.RealInjected)
		l.add(id+"real.detected", "corruptions detected"+at, "count", r.RealDetected)
		l.add(id+"real.corrected", "corruptions corrected in place"+at, "count", r.RealCorrected)
		l.add(id+"real.recomputed", "corruptions repaired by recomputation"+at, "count", r.RealRecomputed)
		l.add(id+"real.residual", fmt.Sprintf("scaled residual (HPL bound %g)", hpl.ResidualThreshold)+at, "ratio", r.Residual)
	}
	return nil
}

// linpackArm adds the makespan and rate of one simulated Linpack run.
func (l *ledger) linpackArm(id, what string, res linpacksim.Result) {
	l.add(id+"seconds", "makespan, "+what, "s", res.Seconds)
	l.add(id+"gflops", "Linpack, "+what, "GFLOPS", res.GFLOPS)
}

// elastic adds the elastic-recovery comparison, held to ElasticVerdict: the
// real small-N solver's healthy, failed and shrunk-from-start runs, then
// the paper-scale model's recovery cost against the checkpoint redo.
func (l *ledger) elastic(seed uint64, tel *telemetry.Telemetry, par int) error {
	l.figure = "elastic"
	r, err := ElasticRecovery(seed, 0, tel, par)
	if err == nil {
		err = ElasticVerdict(r)
	}
	if err != nil {
		return fmt.Errorf("elastic recovery: %w", err)
	}
	at := fmt.Sprintf(", real N=%d NB=%d on %d elements", r.N, r.NB, r.Ranks)
	for _, arm := range []struct {
		name, what string
		res        cluster.ElasticResult
	}{{"healthy", "healthy", r.Healthy}, {"failed", "element death at half makespan", r.Failed}, {"shrunk", "survivors from the start", r.Shrunk}} {
		l.add("elastic.real."+arm.name+".seconds", "makespan, "+arm.what+at, "s", arm.res.Seconds)
		l.add("elastic.real."+arm.name+".residual", "scaled residual, "+arm.what+at, "ratio", arm.res.Residual)
	}
	l.add("elastic.real.failed.ranks", "ranks lost"+at, "ranks", r.Failed.Failed)
	l.add("elastic.real.failed.epochs", "shrinks completed"+at, "count", r.Failed.Epochs)
	l.add("elastic.real.shrunk.live", "surviving ranks"+at, "ranks", r.Shrunk.FinalLive)
	l.add("elastic.real.bit_identical", "failed run's factors, pivots and solution equal the shrunk-from-start run's"+at, "bool", r.BitIdentical)
	l.add("elastic.real.recovery_s", "recovery stall of the first shrink"+at, "s", r.RecoverySeconds)
	l.add("elastic.real.parity_bytes", "checksum traffic of the failed run"+at, "bytes", r.Failed.ParityBytes)
	l.add("elastic.real.encode_overhead_pct", "healthy makespan with parity over without"+at, "%", r.RealOverheadPct)
	m := r.ModelFailed
	at = fmt.Sprintf(", model N=%d NB=%d on %d elements", m.N, m.NB, m.Elements)
	l.add("elastic.model.iterations", "iterations"+at, "count", m.Iterations)
	l.add("elastic.model.fail_iter", "iteration the element dies at"+at, "count", m.FailIter)
	l.add("elastic.model.encode_overhead_pct", "steady-state parity encoding over the clean makespan"+at, "%", r.ModelOverheadPct)
	l.add("elastic.model.recovery_s", "elastic recovery stall"+at, "s", m.RecoverySeconds)
	l.add("elastic.model.checkpoint_redo_s", "checkpoint/restart cost of the same failure"+at, "s", m.CheckpointRedoSeconds)
	l.add("elastic.model.checkpoint_steady_s", "per-iteration checkpoint writes over the run"+at, "s", m.CheckpointSteadySeconds)
	return nil
}

// WriteLedger writes rows in the BENCH_paper.json layout: the seed, par and
// command of the run, then one row per line, so that a figure that moved
// shows in a plain `diff -u` as its named row.
func WriteLedger(w io.Writer, seed uint64, par int, rows []Row) error {
	command, err := json.Marshal(fmt.Sprintf("go run ./cmd/figures -seed %d -par %d", seed, par))
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"par\": %d,\n  \"command\": %s,\n  \"rows\": [\n", seed, par, command)
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep "<" readable in quantities
	for i, r := range rows {
		b.WriteString("    ")
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("ledger row %s: %w", r.ID, err)
		}
		if i < len(rows)-1 {
			b.Truncate(b.Len() - 1)
			b.WriteString(",\n")
		}
	}
	b.WriteString("  ]\n}\n")
	_, err = w.Write(b.Bytes())
	return err
}
