package main

import (
	"fmt"

	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
)

// --- serve-ladder: an open loop in virtual time ---

const (
	ladderClients = 1200
	// ladderHorizon is the arrival window of every rung. Two virtual
	// seconds give the 1000 jobs/s rung ~2,000 completions, so every p99
	// has at least 19 samples beyond it.
	ladderHorizon = sim.Time(2)
	// ladderHeadline is the rate the latency metrics and the fault rungs
	// are taken at.
	ladderHeadline = 4000
	// sloP99 is the latency limit of virt_max_rate_slo, in virtual
	// seconds; a rung also misses it when its backlog outlives the last
	// arrival by more than the limit.
	sloP99 = 0.025
)

// ladderRates are the offered rates, in jobs per virtual second. The
// service saturates between 5000 and 6000, so the ladder is dense there.
var ladderRates = []int{1000, 2000, 4000, 5000, 5500, 6000, 8000, 16000}

var ladderFaults = []string{"lost-gpu", "element-fail"}

// replayRung replays one trace and checks job conservation: every arrival is
// admitted or refused, every admitted job completes or is counted failed.
func replayRung(seed uint64, trace []loadgen.Arrival, scenario string, horizon sim.Time) (loadgen.Report, error) {
	srv, err := serve.New(serve.Config{Seed: seed, Scenario: scenario, ScenarioHorizon: horizon})
	if err != nil {
		return loadgen.Report{}, err
	}
	rep, err := loadgen.Replay(srv, trace)
	if err != nil {
		return rep, err
	}
	st := rep.Stats
	if rep.Arrivals != st.Admitted+st.Rejected || st.Admitted != st.Completed+rep.Failed || rep.Failed < 0 {
		return rep, fmt.Errorf("jobs not conserved: %d arrivals, %d admitted, %d refused, %d completed, %d failed",
			rep.Arrivals, st.Admitted, st.Rejected, st.Completed, rep.Failed)
	}
	return rep, nil
}

func setupServeLadder(e env) (passFunc, error) {
	// Arrivals are generated here and scheduled on the virtual axis by
	// SubmitAt, so the generator is never late: lateness is zero by
	// construction, not by measurement.
	traces := make([][]loadgen.Arrival, len(ladderRates))
	seeds := make([]uint64, len(ladderRates))
	headline := -1
	for i, rate := range ladderRates {
		seeds[i] = sweep.Seed(e.seed, i)
		traces[i] = loadgen.Generate(loadgen.Config{
			Seed: seeds[i], Clients: ladderClients, Rate: float64(rate), Horizon: ladderHorizon,
		})
		if len(traces[i]) == 0 {
			return nil, fmt.Errorf("rate %d: empty trace", rate)
		}
		if rate == ladderHeadline {
			headline = i
		}
	}

	return func(rec *recorder) (values, error) {
		v := values{}
		var peak, maxSLO float64
		var healthy loadgen.Report
		for i, rate := range ladderRates {
			done := rec.begin(fmt.Sprintf("serve.Replay[%d]", rate))
			rep, err := replayRung(seeds[i], traces[i], "", 0)
			done()
			if err != nil {
				return nil, fmt.Errorf("rate %d: %w", rate, err)
			}
			rec.count("serve.jobs_offered", int64(rep.Arrivals))
			rec.count("serve.jobs_refused", int64(rep.Stats.Rejected))
			rec.count("serve.jobs_failed", int64(rep.Failed))
			peak = max(peak, rep.Throughput)
			lastArrival := traces[i][len(traces[i])-1].At
			if rep.P99 <= sloP99 && rep.Stats.Rejected == 0 && rep.Failed == 0 && rep.Makespan-lastArrival <= sloP99 {
				maxSLO = max(maxSLO, float64(rate))
			}
			if i == headline {
				healthy = rep
			}
			if i == len(ladderRates)-1 {
				v["serve.refused_share_at_16000"] = float64(rep.Stats.Rejected) / float64(rep.Arrivals)
			}
		}
		v["virt_makespan_s"] = healthy.Makespan
		v["virt_jobs_per_s_peak"] = peak
		v["virt_p50_ms_at_4000"] = 1e3 * healthy.P50
		v["virt_p99_ms_at_4000"] = 1e3 * healthy.P99
		v["virt_max_rate_slo"] = maxSLO
		v["serve.mean_batch_jobs_at_4000"] = healthy.MeanBatchJobs
		v["serve.batches_at_4000"] = float64(healthy.Stats.Batches)

		for _, scen := range ladderFaults {
			done := rec.begin("serve.Replay[" + scen + "]")
			rep, err := replayRung(seeds[headline], traces[headline], scen, healthy.Makespan)
			done()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", scen, err)
			}
			if rep.Failed != 0 {
				return nil, fmt.Errorf("%s: %d admitted jobs never completed", scen, rep.Failed)
			}
			switch scen {
			case "lost-gpu":
				if rep.Stats.Drains == 0 {
					return nil, fmt.Errorf("lost-gpu: no batch was drained")
				}
				v["virt_degraded_jobs_per_s"] = rep.Throughput
				v["serve.drains_lost_gpu"] = float64(rep.Stats.Drains)
				v["serve.virt_p99_ms_lost_gpu"] = 1e3 * rep.P99
			case "element-fail":
				if rep.Stats.Deaths == 0 {
					return nil, fmt.Errorf("element-fail: no element died")
				}
				v["serve.deaths_element_fail"] = float64(rep.Stats.Deaths)
				v["serve.virt_p99_ms_element_fail"] = 1e3 * rep.P99
			}
		}
		return v, nil
	}, nil
}
