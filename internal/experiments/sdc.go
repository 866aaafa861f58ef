package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/abft"
	"tianhe/internal/blas"
	"tianhe/internal/element"
	"tianhe/internal/fault"
	"tianhe/internal/hpl"
	"tianhe/internal/linpacksim"
	"tianhe/internal/matrix"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// SDCCorrectionTarget is the acceptance bar on task-granular recovery: at
// least this fraction of detected corruptions must be repaired without a
// checkpoint restore for the ABFT layer to pull its weight.
const SDCCorrectionTarget = 0.90

// SDCVerifyBudgetPct is the acceptance bar on verification cost: the clean
// run with checks on must finish within this percentage of the unprotected
// makespan.
const SDCVerifyBudgetPct = 5.0

// SDCSweepResult is the complete silent-data-corruption measurement: the
// virtual-time arms (unprotected, verified-clean, verified-under-fire) plus
// a real small-scale LU factorization whose trailing updates run through
// the checksum verifier with actual bit flips injected — the numerical
// proof that the machinery repairs what it claims to repair.
type SDCSweepResult struct {
	Scenario string
	N        int

	// Healthy is the unprotected reference run; VerifyClean the same run
	// with verification on but nothing striking (its slowdown is the pure
	// protection overhead); Faulted the verified run under the scenario's
	// corruption schedule.
	Healthy, VerifyClean, Faulted linpacksim.Result

	// Injected is the number of strikes the injector delivered into the
	// faulted arm; detection is total when Faulted.SDCDetected equals it.
	Injected int64
	// OverheadPct is the verified-clean slowdown against the unprotected
	// run; FaultedPct the verified-under-fire slowdown (detection plus
	// recovery, the full price of surviving the scenario).
	OverheadPct, FaultedPct float64

	// Real LU evidence: a dense N=RealN factorization whose trailing
	// updates were corrupted by RealInjected actual bit flips, every one
	// detected and repaired (RealCorrected in place, RealRecomputed by
	// re-execution), with the final scaled residual against the HPL bound.
	RealN                                   int
	RealUpdates, RealInjected, RealDetected int
	RealCorrected, RealRecomputed           int
	Residual                                float64
	ResidualPassed                          bool
}

// AllDetected reports total detection: every delivered strike caught.
func (r SDCSweepResult) AllDetected() bool {
	return int64(r.Faulted.SDCDetected) == r.Injected &&
		r.RealDetected == r.RealInjected
}

// CorrectedFrac is the fraction of detected strikes repaired by task
// recomputation alone (no checkpoint restore); 1 when nothing was detected.
func (r SDCSweepResult) CorrectedFrac() float64 {
	if r.Faulted.SDCDetected == 0 {
		return 1
	}
	return float64(r.Faulted.SDCCorrected) / float64(r.Faulted.SDCDetected)
}

// SDCSweep measures one sdc-* scenario (plain or composed, e.g.
// "sdc-single+degraded-gpu") on the Linpack simulation at order n: the
// unprotected reference runs first and sets the scenario horizon, then the
// verified-clean and verified-under-fire arms run on par workers, and a
// real N=512 LU with genuine bit flips closes the loop on numerics.
// Deterministic in (scenario, seed, n) for any par.
func SDCSweep(scenario string, seed uint64, n int, tel *telemetry.Telemetry, par int) (SDCSweepResult, error) {
	if _, err := fault.Scenario(scenario, 1); err != nil {
		return SDCSweepResult{}, err
	}
	if n <= 0 {
		n = 9728
	}
	base := linpacksim.Config{N: n, Variant: element.ACMLGBoth, Seed: seed, Checkpoint: true, Telemetry: tel}
	healthy := linpacksim.Run(base)

	res := SDCSweepResult{Scenario: scenario, N: n, Healthy: healthy}

	type arm struct {
		res      linpacksim.Result
		injected int64
		err      error
	}
	arms := sweep.MapTel(context.Background(), par, tel, []bool{false, true},
		func(_ int, faulted bool, tel *telemetry.Telemetry) arm {
			cfg := base
			cfg.Telemetry = tel
			cfg.Verify = true
			if !faulted {
				return arm{res: linpacksim.Run(cfg)}
			}
			in, err := fault.NewScenario(scenario, healthy.Seconds, seed)
			if err != nil {
				return arm{err: err}
			}
			in.Instrument(tel)
			cfg.SDC = in
			r := linpacksim.Run(cfg)
			return arm{res: r, injected: in.SDCDelivered()}
		})
	for _, a := range arms {
		if a.err != nil {
			return SDCSweepResult{}, a.err
		}
	}
	res.VerifyClean = arms[0].res
	res.Faulted = arms[1].res
	res.Injected = arms[1].injected
	res.OverheadPct = 100 * (res.VerifyClean.Seconds - healthy.Seconds) / healthy.Seconds
	res.FaultedPct = 100 * (res.Faulted.Seconds - healthy.Seconds) / healthy.Seconds

	real := realSDC(seed)
	res.RealN = real.n
	res.RealUpdates = real.v.Updates
	res.RealInjected = real.v.Injected
	res.RealDetected = real.v.Detected
	res.RealCorrected = real.v.Corrected
	res.RealRecomputed = real.v.Recomputed
	res.Residual = real.residual
	res.ResidualPassed = real.residual < hpl.ResidualThreshold
	return res, nil
}

// realSDCRun holds the real-LU half of the sweep.
type realSDCRun struct {
	n        int
	v        *abft.Verifier
	residual float64
}

// realSDC factors a dense N=512 system with every trailing update wrapped
// in the checksum verifier and a deterministic bit flipper corrupting half
// the updates — real corruption in real arithmetic, caught and repaired
// before the solve, then judged by the HPL residual.
func realSDC(seed uint64) realSDCRun {
	const n, nb = 512, 64
	v := abft.NewVerifier(func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
	})
	v.SetInjector(abft.NewBitFlipper(seed, 0.5))
	res, err := hpl.Run(n, seed, hpl.Options{NB: nb, Gemm: v.Gemm})
	if err != nil {
		// The residual is still reported; the caller's verdict fails on it.
		return realSDCRun{n: n, v: v, residual: res.Residual}
	}
	return realSDCRun{n: n, v: v, residual: res.Residual}
}

// ABFTOverheadCell is one size point of ABFTOverhead.
type ABFTOverheadCell struct {
	N             int
	BaseSeconds   float64
	VerifySeconds float64 // host checksum time booked by the verified run
	OverheadPct   float64 // verified-makespan slowdown vs the base run
}

// ABFTOverhead measures the pure cost of checksum verification on the
// pipeline executor across square DGEMM sizes (no corruption injected):
// Ledger records it as the abft.* rows next to the throughput curves, the
// honest price tag of the protection. Points run on par workers.
func ABFTOverhead(seed uint64, sizes []int, par int) []ABFTOverheadCell {
	return sweep.Map(context.Background(), par, sizes, func(_ int, n int) ABFTOverheadCell {
		run := func(verify bool) linpacksim.Result {
			cfg := linpacksim.Config{N: n, Variant: element.ACMLGBoth, Seed: seed, Verify: verify}
			return linpacksim.Run(cfg)
		}
		base := run(false)
		ver := run(true)
		return ABFTOverheadCell{
			N:             n,
			BaseSeconds:   base.Seconds,
			VerifySeconds: ver.VerifySeconds,
			OverheadPct:   100 * (ver.Seconds - base.Seconds) / base.Seconds,
		}
	})
}

// SDCVerdict renders the acceptance check of one sweep: total detection,
// the correction-rate floor, the residual bound, and the verification
// budget. The returned error lists every violated criterion (nil = pass).
func SDCVerdict(r SDCSweepResult) error {
	var fails []string
	if !r.AllDetected() {
		fails = append(fails, fmt.Sprintf("detection not total: sim %d/%d, real %d/%d",
			r.Faulted.SDCDetected, r.Injected, r.RealDetected, r.RealInjected))
	}
	if r.Injected == 0 {
		fails = append(fails, "scenario delivered no strikes — nothing was tested")
	}
	if f := r.CorrectedFrac(); f < SDCCorrectionTarget {
		fails = append(fails, fmt.Sprintf("corrected %.1f%% of detections, target >= %.0f%%",
			100*f, 100*SDCCorrectionTarget))
	}
	if !r.ResidualPassed {
		fails = append(fails, fmt.Sprintf("real LU residual %g exceeds HPL bound %g",
			r.Residual, hpl.ResidualThreshold))
	}
	if r.OverheadPct >= SDCVerifyBudgetPct {
		fails = append(fails, fmt.Sprintf("verification overhead %.2f%% exceeds the %.0f%% budget",
			r.OverheadPct, SDCVerifyBudgetPct))
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("sdc acceptance failed: %v", fails)
}
