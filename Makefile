# Development targets. `make check` is the gate every change must pass:
# it builds all packages, vets them, runs the tianhelint static analyzer
# suite, and runs the full test suite (under the race detector where the
# toolchain has cgo).

.PHONY: check build test vet lint fuzz bench faultgolden recovergolden graphgolden graphbench parbench servebench

check:
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# lint runs the repository's custom invariant analyzers (see
# internal/analyzers and the README "Static analysis" section), with the
# interprocedural checks over the whole-module call graph and the
# clock/rand contract applied inside _test.go files too.
lint:
	go run ./cmd/tianhelint -tests -par 8

test:
	go test ./...

# faultgolden runs the short fault-injection golden runs on their own:
# the healthy scenario (hook overhead must be exactly zero) and the
# lost-gpu scenario (adaptive recovers to >=90% of healthy steady state,
# static/trained stall), then the fault-arm digests: Linpack under
# lost-gpu+sdc-single on the graph, graph+hybrid and monolithic steppers and
# the pipeline's verify/recompute drain, pinned at exact equality, plus the
# stall outcome of the variants with no fallback. They also run as part of
# `make test`/`make check`; this target surfaces their verdicts verbosely.
faultgolden:
	go test -run 'TestHealthyScenarioHasZeroHookOverhead|TestLostGPUAcceptance' -v ./cmd/faultbench
	go test -run 'TestFaultArmDigest|TestStalledRunNeverBeatsHealthyTwin' -v ./internal/linpacksim

# recovergolden surfaces the elastic-recovery goldens verbosely: the shrink
# mapping of the survivor protocol (internal/recover) and the full rendered
# recovery-vs-restart comparison including the bit-identity acceptance
# (internal/experiments). Regenerate deliberately with -update.
recovergolden:
	go test -run 'TestShrinkMappingGolden' -v ./internal/recover
	go test -run 'TestElasticRecoveryGolden|TestElasticRecoveryAcceptance' -v ./internal/experiments

# graphgolden regenerates the canonical dataflow schedules (graph-LU with
# look-ahead 1 and the 3-D stencil sweep) and diffs them against the
# committed goldens in cmd/graphtrace/testdata — any placement, ordering,
# or booked-time drift in the taskgraph scheduler fails the diff. Regenerate
# deliberately with `go test ./cmd/graphtrace -update`.
graphgolden:
	go run ./cmd/graphtrace -workload lu -golden | diff cmd/graphtrace/testdata/lu.golden -
	go run ./cmd/graphtrace -workload lu -golden -hybrid | diff cmd/graphtrace/testdata/lu-hybrid.golden -
	go run ./cmd/graphtrace -workload stencil -golden | diff cmd/graphtrace/testdata/stencil.golden -
	go run ./cmd/graphtrace -workload stencil -golden -hybrid | diff cmd/graphtrace/testdata/stencil-hybrid.golden -

# graphbench regenerates the graph-LU benchmark (monolithic vs graph at each
# look-ahead depth vs graph+hybrid, N=46080) into a fresh artifact and guards
# it against the committed BENCH_graphlu.json baseline: every mode's GFLOPS
# must stay within 10%, and then the whole artifact must equal the baseline
# byte for byte. Virtual time makes the run bit-exact from the seed, so any
# drift is a real code change — regenerate the baseline deliberately with
# `go run ./cmd/graphtrace -bench -o BENCH_graphlu.json` and commit it.
graphbench:
	go run ./cmd/graphtrace -bench -par 8 -o /tmp/tianhe_graphbench.json -baseline BENCH_graphlu.json
	cmp /tmp/tianhe_graphbench.json BENCH_graphlu.json

# fuzz gives each native fuzz target a short fixed budget on top of its
# checked-in seed corpus. New crashers land in testdata/fuzz/ — commit them.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDGEMMPackedVsNaive$$' -fuzztime 10s ./internal/blas
	go test -run '^$$' -fuzz '^FuzzScheduleInvariants$$' -fuzztime 10s ./internal/pipeline
	go test -run '^$$' -fuzz '^FuzzChecksumCodec$$' -fuzztime 10s ./internal/abft
	go test -run '^$$' -fuzz '^FuzzJobCodec$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzGraphSchedule$$' -fuzztime 10s ./internal/taskgraph
	go test -run '^$$' -fuzz '^FuzzComposedScenarios$$' -fuzztime 10s ./internal/linpacksim
	go test -run '^$$' -fuzz '^FuzzPanelCodec$$' -fuzztime 10s ./internal/cluster
	go test -run '^$$' -fuzz '^FuzzDatabaseGJSON$$' -fuzztime 10s ./internal/adaptive

bench:
	go test -run xxx -bench . -benchtime 10x .

# servebench regenerates the serving benchmark (1200 open-loop clients,
# healthy + lost-gpu sweeps) into a fresh artifact and guards it against
# the committed BENCH_serve.json baseline: peak and per-rate healthy
# throughput must stay within 10%, and then the whole artifact must equal the
# baseline byte for byte. Virtual time makes the run bit-exact from the seed,
# so any drift is a real code change — regenerate the baseline deliberately
# with `go run ./cmd/tianhed -bench -o BENCH_serve.json` and commit it.
servebench:
	go run ./cmd/tianhed -bench -par 8 -o /tmp/tianhe_servebench.json -baseline BENCH_serve.json
	cmp /tmp/tianhe_servebench.json BENCH_serve.json

# parbench measures the parallel sweep runner: faultbench and scalebench at
# -par 1 vs -par 8 (override with PAR=n), asserting byte-identical output
# and reporting wall-clock speedups together with the host's core count.
parbench:
	./scripts/parbench.sh
