package main

import "strings"

// metric is one named number the benchmark prints. Two clocks: a metric
// whose name says virt_ is simulated time (or derived from it) and is
// bit-exact from the seed; counts and shares are exact too; everything else
// is host time or a host rate, noisy, and compared by median under a bound.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is refused; per-layer metrics have
	// none.
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every workload reports, so every workload ×
// metric pairing is compared. A bound sits three times clear of the widest
// quartile spread seen over ten runs (README.md has the numbers). The host
// bounds are noise bounds: on the shared two-core box this was written on,
// run medians of op_wall_ms_p50 spread by 2-6%. The virtual bound would be
// zero for one seed — simulated time repeats exactly — but the acceptance
// driver varies the seed from run to run and the seed is the simulated
// hardware's noise: across seeds the makespans spread by up to 0.5%.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"op_wall_ms_p50", "ms", lower, 0.20},
	{"op_alloc_mb", "MB", lower, 0.05},
	{"virt_makespan_s", "s", lower, 0.02},
}

// scopedEndToEnd are end-to-end metrics only some workloads have: what a
// user of the serving daemon or of elastic recovery sees. The acceptance
// driver wants every end-to-end metric from every workload and never zero,
// so BENCHMARK.json lists these with the per-layer metrics; -compare still
// holds them to the bounds here, which are same-seed bounds.
var scopedEndToEnd = []metric{
	{"virt_recovery_s", "s", lower, 0.005},
	{"virt_jobs_per_s_peak", "jobs/s", higher, 0.005},
	{"virt_p50_ms_at_4000", "ms", lower, 0.005},
	{"virt_p99_ms_at_4000", "ms", lower, 0.005},
	{"virt_max_rate_slo", "jobs/s", higher, 0},
	{"virt_degraded_jobs_per_s", "jobs/s", higher, 0.005},
}

// perLayer are the probes of single modules, named module.metric. Each is
// listed under the workload whose end-to-end numbers it should move (see
// README.md for the prediction table).
var perLayer = []metric{
	// blas -> op_wall_ms_p50 on lu-real (most) and lu-dist (part).
	{"blas.dgemm_gflops_256", "GFLOP/s", higher, 0},
	{"blas.dgemm_gflops_1024", "GFLOP/s", higher, 0},
	{"blas.dgemm_packed_gflops_256", "GFLOP/s", higher, 0},
	{"blas.dgemm_packed_gflops_1024", "GFLOP/s", higher, 0},
	{"blas.dgemm_par_gflops_1024", "GFLOP/s", higher, 0},
	{"blas.dgemm_update_gflops", "GFLOP/s", higher, 0},
	{"blas.dgemm_trans_gflops_512", "GFLOP/s", higher, 0},
	{"blas.dtrsm_gflops", "GFLOP/s", higher, 0},
	{"blas.dgemm_allocs_per_call", "count", lower, 0},
	{"blas.lu_wall_share", "ratio", lower, 0},
	{"blas.dgemm_calls_per_lu", "count", lower, 0},
	// hpl -> op_wall_ms_p50 on lu-real.
	{"hpl.run_ms_1024", "ms", lower, 0},
	{"hpl.graphrun_ms_1024", "ms", lower, 0},
	{"hpl.dgetrf_gflops_1024", "GFLOP/s", higher, 0},
	{"hpl.graph_dgetrf_gflops_1024", "GFLOP/s", higher, 0},
	{"hpl.panel_factor_ms", "ms", lower, 0},
	{"hpl.solve_ms", "ms", lower, 0},
	{"hpl.generate_verify_ms", "ms", lower, 0},
	{"hpl.residual_max", "ratio", lower, 0},
	{"hpl.graph_tasks", "count", lower, 0},
	// taskgraph -> op_wall_ms_p50, op_alloc_mb, virt_makespan_s on
	// sim-element and stencil-graph.
	{"taskgraph.build_ns_per_task_lu", "ns", lower, 0},
	{"taskgraph.run_ns_per_task_lu", "ns", lower, 0},
	{"taskgraph.run_ns_per_task_lu_hyb", "ns", lower, 0},
	{"taskgraph.run_ns_per_task_89k", "ns", lower, 0},
	{"taskgraph.run_ns_per_task_stencil", "ns", lower, 0},
	{"taskgraph.run_allocs_per_task_lu", "count", lower, 0},
	{"taskgraph.virt_gflops_lu_graph", "GFLOP/s", higher, 0},
	{"taskgraph.gpu_task_share_lu", "ratio", higher, 0},
	{"taskgraph.residency_hit_share_lu", "ratio", higher, 0},
	{"taskgraph.virt_busy_s_panel", "s", lower, 0},
	{"taskgraph.virt_busy_s_trsm", "s", lower, 0},
	{"taskgraph.virt_busy_s_gemm", "s", lower, 0},
	{"taskgraph.recomputed_tasks", "count", lower, 0},
	// linpacksim -> virt_makespan_s, op_wall_ms_p50 on sim-element.
	{"linpacksim.run_ms_both", "ms", lower, 0},
	{"linpacksim.run_ms_graph_d1", "ms", lower, 0},
	{"linpacksim.run_ms_graph_d1_hyb", "ms", lower, 0},
	{"linpacksim.vgflops_cpu", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_acmlg", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_adaptive", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_pipe", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_both", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_graph_d0", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_graph_d1", "GFLOP/s", higher, 0},
	{"linpacksim.vgflops_graph_d1_hyb", "GFLOP/s", higher, 0},
	{"linpacksim.fault_run_ms", "ms", lower, 0},
	{"linpacksim.fault_vgflops", "GFLOP/s", higher, 0},
	{"linpacksim.fault_redone_iterations", "count", lower, 0},
	// pipeline, hybrid, adaptive, sim -> op_wall_ms_p50 on sim-element and
	// serve-ladder.
	{"pipeline.plan_us", "us", lower, 0},
	{"pipeline.execute_virtual_us", "us", lower, 0},
	{"hybrid.gemm_virtual_us", "us", lower, 0},
	{"hybrid.vgflops_12288", "GFLOP/s", higher, 0},
	{"hybrid.gemm_real_ms_320", "ms", lower, 0},
	{"adaptive.lookup_update_ns", "ns", lower, 0},
	{"sim.timeline_bookings_per_s", "1/s", higher, 0},
	{"sim.engine_events_per_s", "1/s", higher, 0},
	// cluster -> op_wall_ms_p50, virt_makespan_s, virt_recovery_s on
	// lu-dist (real solvers) and sim-machine (models).
	{"cluster.dist2d_ms_768", "ms", lower, 0},
	{"cluster.dist1d_ms_768", "ms", lower, 0},
	{"cluster.elastic_ms_768", "ms", lower, 0},
	{"cluster.elastic_healthy_ms_768", "ms", lower, 0},
	{"cluster.dist2d_vgflops", "GFLOP/s", higher, 0},
	{"cluster.elastic_parity_bytes", "bytes", lower, 0},
	{"cluster.elastic_virt_overhead_pct", "%", lower, 0},
	{"cluster.scale_ms_80cab", "ms", lower, 0},
	{"cluster.scale_ms_1cab", "ms", lower, 0},
	{"cluster.scale_elements_per_s", "1/s", higher, 0},
	{"cluster.scale_vtflops_80cab", "TFLOP/s", higher, 0},
	{"cluster.scale_par_speedup", "ratio", higher, 0},
	{"cluster.elasticsim_us", "us", lower, 0},
	{"cluster.fig11_adaptive_vgflops", "GFLOP/s", higher, 0},
	{"cluster.fig11_trained_vgflops", "GFLOP/s", higher, 0},
	// mpi, recover -> op_wall_ms_p50 on lu-dist; sweep on sim-machine.
	{"mpi.sendrecv_us", "us", lower, 0},
	{"mpi.bcast_us_4", "us", lower, 0},
	{"mpi.virt_bcast_us_4", "us", lower, 0},
	{"recover.xor_mb_per_s", "MB/s", higher, 0},
	{"recover.makeplan_us", "us", lower, 0},
	{"recover.heartbeat_us_4", "us", lower, 0},
	{"sweep.map_ns_per_point", "ns", lower, 0},
	// serve, loadgen -> every serving metric and op_wall_ms_p50 on
	// serve-ladder.
	{"serve.replay_jobs_per_wall_s", "jobs/s", higher, 0},
	{"serve.replay_ms_16000", "ms", lower, 0},
	{"serve.allocs_per_job", "count", lower, 0},
	{"serve.mean_batch_jobs_at_4000", "jobs", higher, 0},
	{"serve.batches_at_4000", "count", lower, 0},
	{"serve.refused_share_at_16000", "ratio", lower, 0},
	{"serve.drains_lost_gpu", "count", lower, 0},
	{"serve.deaths_element_fail", "count", lower, 0},
	{"serve.virt_p99_ms_lost_gpu", "ms", lower, 0},
	{"serve.virt_p99_ms_element_fail", "ms", lower, 0},
	{"serve.codec_ns_per_request", "ns", lower, 0},
	{"loadgen.generate_arrivals_per_s", "1/s", higher, 0},
	// stencil -> op_wall_ms_p50, virt_makespan_s on stencil-graph.
	{"stencil.real_ms_128", "ms", lower, 0},
	{"stencil.reference_ms_128", "ms", lower, 0},
	{"stencil.real_mcells_per_s", "Mcell/s", higher, 0},
	{"stencil.virt_gflops_bz8", "GFLOP/s", higher, 0},
	{"stencil.virt_gflops_bz16", "GFLOP/s", higher, 0},
	{"stencil.virt_gflops_bz32", "GFLOP/s", higher, 0},
	{"stencil.virt_gflops_bz48", "GFLOP/s", higher, 0},
	{"stencil.gpu_task_share_bz8", "ratio", higher, 0},
	// abft, fault, telemetry -> op_wall_ms_p50 on sim-element when armed.
	{"abft.verify_mb_per_s", "MB/s", higher, 0},
	{"fault.hook_overhead_pct", "%", lower, 0},
	{"telemetry.disabled_overhead_pct", "%", lower, 0},
	{"telemetry.enabled_overhead_pct", "%", lower, 0},
	// The harness's own readings, per workload.
	{"harness.op_wall_ms_tail", "ms", lower, 0},
	{"harness.samples", "count", higher, 0},
	{"harness.calib_ms", "ms", lower, 0},
	{"harness.op_wall_rel", "ratio", lower, 0},
	{"harness.trace_overhead_pct", "%", lower, 0},
	{"harness.par", "count", higher, 0},
}

// isVirtual reports whether a metric is on the simulated clock: its name
// says virt_ ("virtual" in a name is a host time of a timing-only call) or
// it is a simulated rate.
func isVirtual(name string) bool {
	return strings.Contains(name, "virt_") || strings.Contains(name, "vgflops") || strings.Contains(name, "vtflops")
}

// exactMetrics are the per-layer metrics that are neither simulated nor
// timed: counts and shares that must repeat exactly for one seed.
var exactMetrics = map[string]bool{
	"hpl.residual_max": true, "hpl.graph_tasks": true,
	"taskgraph.gpu_task_share_lu": true, "taskgraph.residency_hit_share_lu": true,
	"taskgraph.recomputed_tasks": true, "linpacksim.fault_redone_iterations": true,
	"cluster.elastic_parity_bytes": true, "blas.dgemm_calls_per_lu": true,
	"serve.mean_batch_jobs_at_4000": true, "serve.batches_at_4000": true,
	"serve.refused_share_at_16000": true, "serve.drains_lost_gpu": true,
	"serve.deaths_element_fail": true, "stencil.gpu_task_share_bz8": true,
	"harness.samples": true, "harness.par": true,
}

// isExact reports whether two runs of one seed must agree on a metric bit
// for bit.
func isExact(name string) bool { return isVirtual(name) || exactMetrics[name] }

// layerMetricNames are the names a traced run prints: the scoped
// end-to-end metrics, then the per-layer ones.
func layerMetricNames() []metric {
	return append(append([]metric(nil), scopedEndToEnd...), perLayer...)
}

func findMetric(name string) (metric, bool) {
	for _, table := range [][]metric{endToEnd, scopedEndToEnd, perLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
