package loadgen

import (
	"testing"

	"tianhe/internal/serve"
	"tianhe/internal/sim"
	"tianhe/internal/sim/simtest"
)

// replayDigest is FNV-1a over every Result of a drained server in completion
// order — every field, floats by their bits — followed by the run's Stats.
func replayDigest(s *serve.Server) uint64 {
	h := simtest.NewDigest()
	u, i, f := h.U64, h.Int, h.Float
	for _, r := range s.Results() {
		u(r.ID)
		// Length-prefixed, as recorded — not Digest.Str's NUL framing.
		i(len(r.Tenant))
		h.Write([]byte(r.Tenant))
		i(int(r.Kind))
		if r.Rejected {
			i(1)
		} else {
			i(0)
		}
		f(r.RetryAfter)
		f(r.Submit)
		f(r.Start)
		f(r.End)
		u(r.BatchID)
		i(r.BatchJobs)
		f(r.GSplit)
		i(r.Drained)
	}
	st := s.Stats()
	for _, v := range []int{st.Offered, st.Admitted, st.Rejected, st.Completed, st.Batches, st.Drains, st.Deaths, st.QueuePeak} {
		i(v)
	}
	f(st.LastEnd)
	return h.Sum64()
}

// TestReplayDigest pins the serving replay bit for bit. The five constants
// were recorded on the parent commit of the allocation-lean rewrite (the
// container/heap engine, the byID map, the per-job pending object), before
// any production file was touched, and have to survive it unchanged: every
// Result field of every job in completion order, and the Stats, at three
// healthy rates and under both fault scenarios.
func TestReplayDigest(t *testing.T) {
	const seed = 2009
	gen := func(rate float64) []Arrival {
		return Generate(Config{Seed: seed, Clients: 1200, Rate: rate, Horizon: 2})
	}
	run := func(trace []Arrival, scenario string, horizon sim.Time) (*serve.Server, Report) {
		t.Helper()
		s, err := serve.New(serve.Config{Seed: seed, Scenario: scenario, ScenarioHorizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(s, trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d admitted jobs never completed", rep.Failed)
		}
		return s, rep
	}
	check := func(name string, s *serve.Server, results int, want uint64) {
		t.Helper()
		if got := len(s.Results()); got != results {
			t.Errorf("%s: %d results, recorded %d", name, got, results)
		}
		if got := replayDigest(s); got != want {
			t.Errorf("%s: digest %#x, recorded %#x", name, got, want)
		}
	}

	s, _ := run(gen(1000), "", 0)
	check("healthy/1000", s, 1939, 0x2d42fdcdc5bc30de)
	headline := gen(4000)
	s, healthy := run(headline, "", 0)
	check("healthy/4000", s, 8057, 0xade52692051a6e45)
	s, _ = run(gen(16000), "", 0)
	check("healthy/16000", s, 32108, 0xa53c043d1256a06f)
	s, rep := run(headline, "lost-gpu", healthy.Makespan)
	if rep.Stats.Drains == 0 {
		t.Errorf("lost-gpu: no batch was drained")
	}
	check("lost-gpu/4000", s, 8057, 0x72eed2d55727b192)
	s, rep = run(headline, "element-fail", healthy.Makespan)
	if rep.Stats.Deaths == 0 {
		t.Errorf("element-fail: no element died")
	}
	check("element-fail/4000", s, 8057, 0xb6f3ea447bd34833)
}
