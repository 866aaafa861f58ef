package main

import (
	"fmt"
	"math"

	"tianhe"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/hpl"
	"tianhe/internal/linpacksim"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

// --- sim-element: the paper's single-element runs, timing only ---

const (
	simN  = 46080
	simNB = 1216
	// simFaultScenario composes a device loss with silent corruption; the
	// run survives it by task recomputation and checkpoint restore.
	simFaultScenario = "lost-gpu+sdc-single"
)

// variantKeys names the five paper variants in metric names, in
// tianhe.Variants order.
var variantKeys = []string{"cpu", "acmlg", "adaptive", "pipe", "both"}

// graphModes are the three graph-stepper configurations of linpacksim.
var graphModes = []struct {
	key       string
	lookahead int
	hybrid    bool
}{
	{"graph_d0", 0, false},
	{"graph_d1", 1, false},
	{"graph_d1_hyb", 1, true},
}

func simGraphConfig(seed uint64, lookahead int, hybrid bool, tel *telemetry.Telemetry) linpacksim.Config {
	return linpacksim.Config{
		N: simN, NB: simNB, Variant: element.ACMLGBoth, Seed: seed, Telemetry: tel,
		Graph: true, Lookahead: lookahead, GraphHybrid: hybrid,
	}
}

// busyByCodelet sums the booked task time of each codelet.
func busyByCodelet(rep taskgraph.Report) map[string]float64 {
	busy := map[string]float64{}
	for _, ts := range rep.TaskSpans {
		busy[ts.Codelet] += ts.End - ts.Start
	}
	return busy
}

// setupSimElement builds the sim-element pass. newTel supplies the telemetry
// bundle of each pass: telemetry.Disabled for the workload itself,
// telemetry.New for the probe that prices enabled telemetry.
func setupSimElement(e env, newTel func() *telemetry.Telemetry) (passFunc, error) {
	// The fault windows scale to the healthy makespan of the configuration
	// they strike.
	horizon := linpacksim.Run(simGraphConfig(e.seed, 1, true, nil)).Seconds

	return func(rec *recorder) (values, error) {
		tel := newTel()
		v := values{}
		for i, variant := range tianhe.Variants {
			done := rec.begin("linpacksim.Run[" + variantKeys[i] + "]")
			res := tianhe.SimulateLinpack(tianhe.SimulateConfig{
				N: simN, Variant: variant, Seed: e.seed, Telemetry: tel,
				PageableLibrary: variant == tianhe.ACMLG,
			})
			done()
			v["linpacksim.vgflops_"+variantKeys[i]] = res.GFLOPS
			if variant == tianhe.ACMLGBoth {
				v["virt_makespan_s"] = res.Seconds
			}
		}
		for _, m := range graphModes {
			done := rec.begin("linpacksim.Run[" + m.key + "]")
			res := linpacksim.Run(simGraphConfig(e.seed, m.lookahead, m.hybrid, tel))
			done()
			v["linpacksim.vgflops_"+m.key] = res.GFLOPS
		}

		el := element.New(element.Config{Seed: e.seed, Virtual: true})
		done := rec.begin("hpl.BuildLUGraph")
		g := hpl.BuildLUGraph(simN, nil, nil, el, nil, hpl.GraphOptions{NB: simNB, Lookahead: 1})
		done()
		done = rec.begin("taskgraph.Scheduler.Run")
		rep, err := taskgraph.NewScheduler(el, taskgraph.Options{Telemetry: tel}).Run(g, 0)
		done()
		if err != nil {
			return nil, err
		}
		if rep.Stalled || rep.Tasks != g.Len() {
			return nil, fmt.Errorf("whole-factorization graph: placed %d of %d tasks (stalled=%v)", rep.Tasks, g.Len(), rep.Stalled)
		}
		rec.count("taskgraph.tasks", int64(rep.Tasks))
		busy := busyByCodelet(rep)
		v["taskgraph.virt_gflops_lu_graph"] = rep.GFLOPS()
		v["taskgraph.gpu_task_share_lu"] = float64(rep.TasksGPU) / float64(rep.Tasks)
		v["taskgraph.residency_hit_share_lu"] = float64(rep.BytesSkipped) / float64(rep.BytesIn+rep.BytesSkipped)
		v["taskgraph.virt_busy_s_panel"] = busy["lu.panel"]
		v["taskgraph.virt_busy_s_trsm"] = busy["lu.trsm"]
		v["taskgraph.virt_busy_s_gemm"] = busy["lu.gemm"]

		in, err := fault.NewScenario(simFaultScenario, horizon, e.seed)
		if err != nil {
			return nil, err
		}
		cfg := simGraphConfig(e.seed, 1, true, tel)
		cfg.Checkpoint, cfg.Verify, cfg.SDC = true, true, in
		done = rec.begin("linpacksim.Run[fault]")
		res := linpacksim.Run(cfg)
		done()
		if !(res.Seconds > horizon) || res.SDCDetected != res.SDCCorrected+res.SDCEscalated {
			return nil, fmt.Errorf("fault arm: %.3f s against healthy %.3f s, detected %d != corrected %d + escalated %d",
				res.Seconds, horizon, res.SDCDetected, res.SDCCorrected, res.SDCEscalated)
		}
		v["linpacksim.fault_vgflops"] = res.GFLOPS
		v["linpacksim.fault_redone_iterations"] = float64(res.RedoneIterations)
		v["taskgraph.recomputed_tasks"] = float64(res.SDCCorrected)
		return v, nil
	}, nil
}

// --- sim-machine: the multi-cabinet models ---

// scaledN is the weak-scaling problem order: base*sqrt(units), rounded down
// to a multiple of the blocking factor, as the paper's cabinet sweeps grow it.
func scaledN(base, units int) int {
	n := int(float64(base) * math.Sqrt(float64(units)))
	return n - n%simNB
}

var cabinetCounts = []int{1, 8, 80}

// fullMachineN is the paper's 80-cabinet problem order.
const fullMachineN = 2240000 - 2240000%simNB

func scaleConfig(seed uint64, cabinets, par int) tianhe.ScaleConfig {
	n := scaledN(280000, cabinets)
	if cabinets == 80 {
		n = fullMachineN
	}
	return tianhe.ScaleConfig{
		N: n, NB: simNB, Processes: 64 * cabinets, Seed: seed,
		Policy: tianhe.PolicyAdaptive, Downclock: true, Workers: par,
	}
}

// elasticModel is the paper-scale analytic twin of the elastic solver.
var elasticModel = cluster.ElasticSimConfig{N: 19456, NB: 128, Elements: 24}

func setupSimMachine(e env) (passFunc, error) {
	return func(rec *recorder) (values, error) {
		v := values{}
		for _, cab := range cabinetCounts {
			done := rec.begin(fmt.Sprintf("cluster.SimulateScale[%dcab]", cab))
			r := tianhe.SimulateScale(scaleConfig(e.seed, cab, e.par))
			done()
			if !(r.Seconds > 0) || !(r.TFLOPS > 0) {
				return nil, fmt.Errorf("SimulateScale(%d cabinets): %g s, %g TFLOPS", cab, r.Seconds, r.TFLOPS)
			}
			if cab == 80 {
				v["virt_makespan_s"] = r.Seconds
				v["cluster.scale_vtflops_80cab"] = r.TFLOPS
			}
		}
		for _, pol := range []tianhe.Policy{tianhe.PolicyAdaptive, tianhe.PolicyTrained} {
			done := rec.begin("cluster.SimulateScale[fig11]")
			r := tianhe.SimulateScale(tianhe.ScaleConfig{
				N: scaledN(simN, 64), NB: simNB, Processes: 64, Seed: e.seed, Policy: pol,
			})
			done()
			if pol == tianhe.PolicyAdaptive {
				v["cluster.fig11_adaptive_vgflops"] = r.GFLOPS
			} else {
				v["cluster.fig11_trained_vgflops"] = r.GFLOPS
			}
		}
		if !(v["cluster.fig11_adaptive_vgflops"] > v["cluster.fig11_trained_vgflops"]) {
			return nil, fmt.Errorf("Fig. 11: adaptive %g vGFLOPS does not beat trained %g",
				v["cluster.fig11_adaptive_vgflops"], v["cluster.fig11_trained_vgflops"])
		}

		parity, failed := elasticModel, elasticModel
		parity.Parity = true
		failed.Parity, failed.FailFrac = true, 0.5
		var res [3]cluster.ElasticSimResult
		for i, cfg := range []cluster.ElasticSimConfig{elasticModel, parity, failed} {
			done := rec.begin("cluster.SimulateElastic")
			res[i] = cluster.SimulateElastic(cfg)
			done()
		}
		if !(res[1].Seconds >= res[0].Seconds) || !(res[2].RecoverySeconds > 0) ||
			!(res[2].RecoverySeconds < res[2].CheckpointRedoSeconds) {
			return nil, fmt.Errorf("elastic model: clean %g s, parity %g s, recovery %g s against checkpoint redo %g s",
				res[0].Seconds, res[1].Seconds, res[2].RecoverySeconds, res[2].CheckpointRedoSeconds)
		}
		v["virt_recovery_s"] = res[2].RecoverySeconds
		return v, nil
	}, nil
}
