package experiments

import (
	"reflect"
	"testing"

	"tianhe/internal/telemetry"
)

// The ISSUE 10 acceptance: a mid-run element death completes with a passing
// residual and factors bit-identical to the shrunk-from-start run, the
// recovery stall is measured and — at model scale — strictly below the
// checkpoint/restart redo, with steady-state encoding under 5%.
func TestElasticRecoveryAcceptance(t *testing.T) {
	r, err := ElasticRecovery(DefaultSeed, 0, telemetry.Disabled(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ElasticVerdict(r); err != nil {
		t.Fatal(err)
	}
	if r.ModelClean.N < 19456 {
		t.Fatalf("model arm runs N=%d, acceptance demands >= 19456", r.ModelClean.N)
	}
	if r.ModelFailed.RecoverySeconds >= float64(r.ModelFailed.CheckpointRedoSeconds) {
		t.Fatalf("recovery %.3fs not below redo %.3fs", r.ModelFailed.RecoverySeconds, r.ModelFailed.CheckpointRedoSeconds)
	}
}

func TestParDeterminismElasticRecovery(t *testing.T) {
	run := func(par int) (ElasticRecoveryResult, []byte) {
		tel := telemetry.New()
		r, err := ElasticRecovery(DefaultSeed, 0, tel, par)
		if err != nil {
			t.Fatal(err)
		}
		return r, telBytes(t, tel)
	}
	res1, tel1 := run(1)
	res8, tel8 := run(8)
	if !reflect.DeepEqual(res1, res8) {
		t.Errorf("ElasticRecovery diverged between par 1 and par 8 (model arms %+v vs %+v)", res1.ModelFailed, res8.ModelFailed)
	}
	diffBytes(t, "ElasticRecovery telemetry", tel1, tel8)
}
