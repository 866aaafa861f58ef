package cluster

import (
	"fmt"
	"math"
	"testing"

	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
)

// scaleDigest folds every number a scale run reports: the makespan, the
// rate and each point of the progress curve, floats by their bits.
func scaleDigest(r ScaleResult) uint64 {
	h := simtest.NewDigest()
	h.Float(r.Seconds)
	h.Float(r.GFLOPS)
	h.Int(len(r.Progress))
	for _, p := range r.Progress {
		h.Float(p.Frac)
		h.Float(p.CumTFLOPS)
	}
	return h.Sum64()
}

// cabinetN is the weak-scaling order of the cabinet sweeps: 280,000·√c
// rounded down to the blocking factor, and the paper's 2,240,000 at 80.
func cabinetN(cabinets int) int {
	n := int(280000 * math.Sqrt(float64(cabinets)))
	if cabinets == 80 {
		n = 2240000
	}
	return n - n%1216
}

// TestScaleDigest pins SimulateScale bit for bit. Every value was recorded
// on the parent commit of the structure-of-arrays rewrite and its batched
// draws, before any production file was touched: the 1-, 8- and 80-cabinet
// down-clocked runs of Fig. 12, Fig. 11's 64-process pair, and small runs at
// process counts that leave ragged shards and draw groups, each at several
// worker counts with the progress curve recorded. The 130-element cases,
// trained splits among them, were recorded on the parent commit of the
// element-major loop interchange. They hold under all four combinations of
// the batch-draw variate kernel and the fleet-update kernel, each on where
// the host has it or forced onto the portable path: "host" runs both
// kernels, "portable" neither, and the other two arms name the one kernel
// they switch off.
func TestScaleDigest(t *testing.T) {
	for _, arm := range []struct {
		name            string
		variates, fleet func(func())
	}{
		{"host", asHost, asHost},
		{"portable", sim.WithoutKernel, withoutFleetKernel},
		{"portable-variates", sim.WithoutKernel, asHost},
		{"portable-fleet", asHost, withoutFleetKernel},
	} {
		t.Run(arm.name, func(t *testing.T) {
			arm.variates(func() { arm.fleet(func() { scaleDigests(t) }) })
		})
	}
}

// asHost calls f under the host's own kernel choice.
func asHost(f func()) { f() }

func scaleDigests(t *testing.T) {
	const seed = 2009
	check := func(name string, cfg ScaleConfig, want uint64) {
		t.Helper()
		if got := scaleDigest(SimulateScale(cfg)); got != want {
			t.Errorf("%s: digest %#x, recorded %#x", name, got, want)
		}
	}
	for _, c := range []struct {
		cabinets int
		want     uint64
	}{{1, 0xd0ed94080cc3db20}, {8, 0x3fe2672cfa1eef0b}, {80, 0xec987dd9079eaeb5}} {
		check(fmt.Sprintf("%dcab", c.cabinets), ScaleConfig{
			N: cabinetN(c.cabinets), NB: 1216, Processes: 64 * c.cabinets, Seed: seed,
			Policy: PolicyAdaptive, Downclock: true, Workers: 8,
		}, c.want)
	}
	for _, c := range []struct {
		policy Policy
		want   uint64
	}{{PolicyAdaptive, 0x741fea63cb968217}, {PolicyTrained, 0x901b2b905c2e3ca8}} {
		check("fig11/"+c.policy.String(), ScaleConfig{
			N: 368640 - 368640%1216, NB: 1216, Processes: 64, Seed: seed, Policy: c.policy,
		}, c.want)
	}
	for _, c := range []struct {
		procs  int
		policy Policy
		want   uint64
	}{
		{1, PolicyAdaptive, 0xb3ac981c85d2e25c}, {3, PolicyAdaptive, 0xd2c44809fd16d2e7},
		{13, PolicyAdaptive, 0x122d9099ab84b90f}, {100, PolicyAdaptive, 0x9d1e8435d33393b1},
		// 130 elements split into shards of 65 at two workers: a full draw
		// chunk and a one-element one in each shard.
		{130, PolicyAdaptive, 0x37de86b24fd47769}, {130, PolicyTrained, 0xabf36be4ade478bf},
	} {
		for _, workers := range []int{1, 2, 3, 8} {
			check(fmt.Sprintf("p%d/%v/w%d", c.procs, c.policy, workers), ScaleConfig{
				N: 121600, NB: 1216, Processes: c.procs, Seed: seed,
				Policy: c.policy, RecordProgress: true, Workers: workers,
			}, c.want)
		}
	}
}
