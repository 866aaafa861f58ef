# Development targets. `make check` is the gate every change must pass:
# it builds all packages, vets them, runs the tianhelint static analyzer
# suite, and runs the full test suite (under the race detector where the
# toolchain has cgo).

.PHONY: check build test vet lint fuzz bench paperbench parbench

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

# paperbench regenerates the ledger of every virtual number the repository
# commits (Figs 8-13, the power accounting, the ablations, the ABFT overhead
# table, the graph-LU study's graphlu.* rows, the serving sweeps' serve.*
# rows, the fault scenarios' fault.* rows, the silent-data-corruption
# sweeps' sdc.* rows, the real 2-D solver's dist2d.* rows and the
# elastic-recovery comparison's elastic.* rows)
# into a fresh file and diffs it against the committed BENCH_paper.json. The
# rows are deterministic in the seed and identical for every -par, so any
# line in the diff is a named row that moved; a run that breaks its contract
# (a lost serving job, no lost-gpu drain, a frozen policy surviving the lost
# GPU, an undetected corruption, a non-bit-identical elastic recovery) fails
# the run. TestPaperLedger holds the banded rows to the paper; regenerate
# deliberately with `go run ./cmd/figures -par 8 -o BENCH_paper.json` and
# commit it.
paperbench:
	go run ./cmd/figures -par 8 -o /tmp/tianhe_paper.json && diff -u BENCH_paper.json /tmp/tianhe_paper.json

# fuzz gives each native fuzz target a short fixed budget on top of its
# checked-in seed corpus. New crashers land in testdata/fuzz/ — commit them.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDgemmContract$$' -fuzztime 10s ./internal/blas
	go test -run '^$$' -fuzz '^FuzzVariateContract$$' -fuzztime 10s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzSlabKernel$$' -fuzztime 10s ./internal/stencil
	go test -run '^$$' -fuzz '^FuzzScheduleInvariants$$' -fuzztime 10s ./internal/pipeline
	go test -run '^$$' -fuzz '^FuzzChecksumCodec$$' -fuzztime 10s ./internal/abft
	go test -run '^$$' -fuzz '^FuzzJobCodec$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzGraphSchedule$$' -fuzztime 10s ./internal/taskgraph
	go test -run '^$$' -fuzz '^FuzzComposedScenarios$$' -fuzztime 10s ./internal/linpacksim
	go test -run '^$$' -fuzz '^FuzzPanelCodec$$' -fuzztime 10s ./internal/cluster
	go test -run '^$$' -fuzz '^FuzzFillMatrix$$' -fuzztime 10s ./internal/hpl
	go test -run '^$$' -fuzz '^FuzzDgetrfShapes$$' -fuzztime 10s ./internal/hpl
	go test -run '^$$' -fuzz '^FuzzFleetKernel$$' -fuzztime 10s ./internal/cluster
	go test -run '^$$' -fuzz '^FuzzDatabaseGJSON$$' -fuzztime 10s ./internal/adaptive
	go test -run '^$$' -fuzz '^FuzzMakePlan$$' -fuzztime 10s ./internal/recover

bench:
	go test -run xxx -bench . -benchtime 10x .

# parbench measures the parallel sweep runner: figures at -par 1 vs -par 8
# (override with PAR=n), asserting byte-identical rows and reporting the
# wall-clock speedup together with the host's core count.
parbench:
	./scripts/parbench.sh
