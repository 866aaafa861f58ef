package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// report is what one full invocation writes to <dir>/report.json and what
// -compare reads back.
type report struct {
	Seed       uint64         `json:"seed"`
	Par        int            `json:"par"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go"`
	Workloads  []*workloadRun `json:"workloads"`
}

func newReport(e env) *report {
	return &report{Seed: e.seed, Par: e.par, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// endToEndValues are the universal end-to-end metrics of a run, from its
// untraced passes alone.
func (r *workloadRun) endToEndValues() values {
	return values{
		"setup_s":         median(r.SetupS),
		"op_wall_ms_p50":  median(r.WallMs),
		"op_alloc_mb":     median(r.AllocMB),
		"virt_makespan_s": r.Values["virt_makespan_s"],
	}
}

// spanMetrics are per-layer metrics read off the traced run: the median
// duration of a public call's spans, times scale.
var spanMetrics = []struct {
	span, metric string
	scale        float64
}{
	{"hpl.Run", "hpl.run_ms_1024", 1e3},
	{"hpl.GraphRun", "hpl.graphrun_ms_1024", 1e3},
	{"cluster.SolveDistributed2D", "cluster.dist2d_ms_768", 1e3},
	{"cluster.SolveDistributed", "cluster.dist1d_ms_768", 1e3},
	{"cluster.SolveElastic", "cluster.elastic_ms_768", 1e3},
	{"linpacksim.Run[both]", "linpacksim.run_ms_both", 1e3},
	{"linpacksim.Run[graph_d1]", "linpacksim.run_ms_graph_d1", 1e3},
	{"linpacksim.Run[graph_d1_hyb]", "linpacksim.run_ms_graph_d1_hyb", 1e3},
	{"linpacksim.Run[fault]", "linpacksim.fault_run_ms", 1e3},
	{"cluster.SimulateScale[80cab]", "cluster.scale_ms_80cab", 1e3},
	{"cluster.SimulateScale[1cab]", "cluster.scale_ms_1cab", 1e3},
	{"cluster.SimulateElastic", "cluster.elasticsim_us", 1e6},
	{"serve.Replay[16000]", "serve.replay_ms_16000", 1e3},
	{"stencil.Run[real]", "stencil.real_ms_128", 1e3},
}

// traceValues derives the per-layer metrics the traced passes yield.
func traceValues(run *workloadRun) values {
	out := values{}
	list := spanStats(run.spans)
	stats := map[string]spanStat{}
	for _, s := range list {
		stats[s.Name] = s
	}
	passes := float64(stats["pass"].Calls)
	if passes == 0 {
		return out
	}
	med := func(span string) float64 { return median(stats[span].Durations) }
	for _, sm := range spanMetrics {
		if _, ok := stats[sm.span]; ok {
			out[sm.metric] = sm.scale * med(sm.span)
		}
	}
	if s, ok := stats["blas.DgemmParallel"]; ok {
		out["blas.lu_wall_share"] = s.Total / stats["hpl.Run"].Total
		out["blas.dgemm_calls_per_lu"] = float64(run.counts["blas.dgemm_calls"]) / passes
	}
	if tasks := float64(run.counts["taskgraph.tasks"]) / passes; tasks > 0 {
		out["taskgraph.build_ns_per_task_lu"] = 1e9 * med("hpl.BuildLUGraph") / tasks
		out["taskgraph.run_ns_per_task_lu"] = 1e9 * med("taskgraph.Scheduler.Run") / tasks
	}
	if _, ok := stats["cluster.SimulateScale[80cab]"]; ok {
		steps := float64(64 * 80 * (fullMachineN / simNB)) // element-iterations of the full machine
		out["cluster.scale_elements_per_s"] = steps / med("cluster.SimulateScale[80cab]")
	}
	if offered := float64(run.counts["serve.jobs_offered"]) / passes; offered > 0 {
		replaying := 0.0
		for _, s := range list {
			if strings.HasPrefix(s.Name, "serve.Replay[") {
				replaying += s.Total
			}
		}
		// Offered jobs count the healthy ladder; so must the time.
		for _, scen := range ladderFaults {
			replaying -= stats["serve.Replay["+scen+"]"].Total
		}
		out["serve.replay_jobs_per_wall_s"] = offered * passes / replaying
	}
	if _, ok := stats["stencil.Run[real]"]; ok {
		out["stencil.real_mcells_per_s"] = 128 * 128 * 128 * 4 / med("stencil.Run[real]") / 1e6
	}
	return out
}

// harnessValues are the harness's own per-workload readings.
func harnessValues(run *workloadRun, par int) values {
	_, tailMs := tail(run.WallMs)
	calib := (run.CalibMs[0] + run.CalibMs[1]) / 2
	out := values{
		"harness.op_wall_ms_tail": tailMs,
		"harness.samples":         float64(len(run.WallMs)),
		"harness.calib_ms":        calib,
		"harness.op_wall_rel":     median(run.WallMs) / calib,
		"harness.par":             float64(par),
	}
	if len(run.TracedWallMs) > 0 {
		out["harness.trace_overhead_pct"] = overheadPct(median(run.WallMs), median(run.TracedWallMs))
	}
	return out
}

// layerValues assembles everything a traced run of one workload reports
// besides the universal end-to-end metrics: the values of its passes, what
// its spans yield, the probes of the layers that do its work, and the
// harness's readings. Metrics of layers the workload bypasses read 0.
func layerValues(w *workload, run *workloadRun, e env) (values, error) {
	out := values{}
	add := func(vs values) error {
		for k, v := range vs {
			if _, ok := findMetric(k); !ok {
				return fmt.Errorf("%s: %q is not a declared metric", w.name, k)
			}
			out[k] = v
		}
		return nil
	}
	if err := add(run.Values); err != nil {
		return nil, err
	}
	delete(out, "virt_makespan_s")
	if err := add(traceValues(run)); err != nil {
		return nil, err
	}
	for _, layer := range w.layers {
		probed := values{}
		if err := findProbeGroup(layer).run(e, probed); err != nil {
			return nil, fmt.Errorf("%s: %s probes: %w", w.name, layer, err)
		}
		if err := add(probed); err != nil {
			return nil, err
		}
	}
	if err := add(harnessValues(run, e.par)); err != nil {
		return nil, err
	}
	return out, nil
}

// contractLine is the one JSON object a contract-mode run ends with.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeContractLine prints the result line: every metric of defs, with the
// value measured or 0 for a layer the workload does not touch.
func writeContractLine(w io.Writer, run *workloadRun, defs []metric, vals values) error {
	line := contractLine{Correct: run.Failed == 0, Attempted: run.Passes, Failed: run.Failed, Metrics: map[string]contractMetric{}}
	for _, m := range defs {
		line.Metrics[m.Name] = contractMetric{Value: vals[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// describe renders an end-to-end metric's direction and bound.
func describe(m metric) string {
	return fmt.Sprintf("%s is better, bound %g%%", m.Better, 100*m.Bound)
}

// clockOf names what a metric is read on: the simulated clock, the host
// clock (times and rates, the noisy ones), the host heap, or nothing — an
// exact count.
func clockOf(m metric) string {
	switch {
	case isVirtual(m.Name):
		return "virtual"
	case isExact(m.Name):
		return "exact"
	case m.Unit == "MB":
		return "heap"
	}
	return "host"
}

// printEndToEnd prints a workload's end-to-end metrics by name with unit,
// clock, direction and bound.
func printEndToEnd(w io.Writer, run *workloadRun) {
	pct, tailMs := tail(run.WallMs)
	noisy := ""
	if run.Noisy {
		noisy = "  NOISY: calibration moved by more than 10% across this workload; host metrics are not to be trusted"
	}
	fmt.Fprintf(w, "\n== %s: %d passes (%d of them traced), %d failed, calibration %.3f -> %.3f ms%s\n",
		run.Workload, run.Passes, len(run.TracedWallMs), run.Failed, run.CalibMs[0], run.CalibMs[1], noisy)
	for _, f := range run.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	e2e := run.endToEndValues()
	for _, m := range endToEnd {
		extra := ""
		if m.Name == "op_wall_ms_p50" {
			q1, _, q3 := quartiles(run.WallMs)
			extra = fmt.Sprintf("  [quartiles %.3f..%.3f, p%.1f %.3f, %d samples]", q1, q3, pct, tailMs, len(run.WallMs))
		}
		if run.Noisy && clockOf(m) == "host" {
			extra += "  noisy"
		}
		fmt.Fprintf(w, "   %-26s %14.6g %-7s %-8s (%s)%s\n", m.Name, e2e[m.Name], m.Unit, clockOf(m), describe(m), extra)
	}
	for _, m := range scopedEndToEnd {
		if v, ok := run.Values[m.Name]; ok {
			fmt.Fprintf(w, "   %-26s %14.6g %-7s %-8s (%s)\n", m.Name, v, m.Unit, clockOf(m), describe(m))
		}
	}
}

// printLayers prints the per-layer metrics that were measured, by name with
// unit.
func printLayers(w io.Writer, vals values) {
	for _, m := range perLayer {
		if v, ok := vals[m.Name]; ok {
			fmt.Fprintf(w, "   %-38s %14.6g %-8s %s\n", m.Name, v, m.Unit, clockOf(m))
		}
	}
}

// printSpanTable prints the traced run's spans grouped by name: calls, total
// and self time, and the share of all pass time that is the span's own.
func printSpanTable(w io.Writer, run *workloadRun) {
	stats := spanStats(run.spans)
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Self > stats[j].Self })
	fmt.Fprintf(w, "\n== %s: traced run, %d passes, self times within %.4f%% of the pass spans\n",
		run.Workload, len(run.TracedWallMs), 100*selfSumError(run.spans))
	fmt.Fprintf(w, "   %-34s %-11s %7s %12s %12s %7s\n", "span", "layer", "calls", "total ms", "self ms", "self %")
	for _, s := range stats {
		fmt.Fprintf(w, "   %-34s %-11s %7d %12.3f %12.3f %6.1f%%\n",
			s.Name, s.layer(), s.Calls, 1e3*s.Total, 1e3*s.Self, 100*s.SharePassTotal)
	}
	var names []string
	for name := range run.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   count %-28s %d\n", name, run.counts[name])
	}
}
