#!/bin/sh
# check.sh — the full local verification suite: build everything, vet
# everything, require gofmt-clean sources, run the tianhelint invariant
# analyzers, and run every test — under the race detector when the toolchain
# supports it. CI and `make check` both run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# internal/blas, internal/sim, internal/stencil, internal/cluster and
# internal/cpufeat have amd64 assembly (vet's asmdecl checks their stubs
# above); everywhere else the portable path is the only one, so it must build
# and vet clean where the .s files are excluded.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/blas ./internal/sim ./internal/stencil ./internal/cluster ./internal/cpufeat
# ledgermatches NAME CMD... writes the ledger of committed virtual numbers
# with `CMD -par 8 -o FILE` and requires it to equal BENCH_paper.json byte
# for byte.
ledgermatches() {
    name=$1
    shift
    ledger=$(mktemp)
    "$@" -par 8 -o "$ledger"
    if ! cmp -s BENCH_paper.json "$ledger"; then
        diff -u BENCH_paper.json "$ledger" >&2 || true
        rm -f "$ledger"
        echo "check.sh: the $name ledger differs from BENCH_paper.json" >&2
        exit 1
    fi
    rm -f "$ledger"
}
# The purego build reports no CPU feature, so every SIMD kernel is off: the
# kernels' packages must pass on their portable paths alone, and the ledger
# must come out byte for byte the same — no committed number may depend on
# which kernel ran.
go test -tags purego ./internal/blas ./internal/sim ./internal/stencil ./internal/cluster
ledgermatches purego go run -tags purego ./cmd/figures
# The 386 build is the second instruction set: no assembly, 32-bit int and
# pointers. It must build, and its ledger must match too — no committed
# number may depend on the ISA or the word size. Building first also warms
# the 386 export data that tianhelint's loader types the standard library
# from when the tests run under GOARCH=386 (CI does).
GOARCH=386 go build ./...
ledgermatches 386 env GOARCH=386 go run ./cmd/figures
# fusedcount PKG FUNC prints the fused multiply-adds in the arm64 -S listing
# of PKG outside function FUNC, then those inside it (the build cache
# replays the listing, so this stays cheap).
fusedcount() {
    GOARCH=arm64 go build -gcflags=-S "$1" 2>&1 | awk -v allow="$2" '
        / STEXT / { fn = $1; next }
        /[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]/ { if (fn == allow) inside++; else outside++ }
        END { print outside + 0, inside + 0 }'
}
# The accumulation-order contract rounds every product before its add: no
# fused multiply-add may appear in internal/blas on arm64, where the compiler
# fuses a*b+c unless the product is rounded explicitly...
set -- $(fusedcount ./internal/blas "")
if [ "$1" != 0 ]; then
    echo "check.sh: $1 fused multiply-adds in the arm64 build of internal/blas" >&2
    exit 1
fi
# ...the variate contract likewise, except for the exp transcription's
# math.FMA calls, which fuse where exp_amd64.s does and nowhere else...
set -- $(fusedcount ./internal/sim tianhe/internal/sim.Exp)
fmas=$(grep -c 'math\.FMA(' internal/sim/variate.go)
if [ "$1" != 0 ] || [ "$2" != "$fmas" ]; then
    echo "check.sh: internal/sim on arm64 fuses $1 multiply-adds outside Exp and $2 inside it (want 0 and $fmas)" >&2
    exit 1
fi
# ...the scale and elastic models, with every product they inline from
# other packages, round theirs too: none may fuse; nor may the stencil row
# contract's products, nor the uniform fills and norms of internal/matrix,
# nor the serving batcher's learned rates and batch target...
for pkg in cluster stencil matrix serve; do
    set -- $(fusedcount ./internal/$pkg "")
    if [ "$1" != 0 ]; then
        echo "check.sh: $1 fused multiply-adds in the arm64 build of internal/$pkg" >&2
        exit 1
    fi
done
# ...and the bitwise tests must hold at the amd64 level that has FMA.
GOAMD64=v3 go test ./internal/blas ./internal/hpl ./internal/sim ./internal/cluster ./internal/stencil
# gofmt -l names every file that differs from canonical formatting; any
# name is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# -tests also lints _test.go files with the clock/rand contract; -par runs
# the per-package passes concurrently (findings identical at any setting).
go run ./cmd/tianhelint -tests -par 8

# The race detector needs cgo; fall back to plain tests on toolchains
# without it (CGO_ENABLED=0 or no C compiler) so check works everywhere.
# The -race run doubles as the gate for the parallel sweep runner: the
# TestParDeterminism goldens in internal/experiments compare -par 1
# against -par 8 byte for byte under the detector — including the serving
# sweep (TestParDeterminismServeSweep), whose per-tenant metric dumps and
# ledger rows must match across parallelism.
if [ "$(go env CGO_ENABLED)" = "1" ]; then
    go test -race ./...
    # Every testing.AllocsPerRun budget skips itself under the detector (its
    # shadow memory allocates), so the race run above gates none of them:
    # run them plainly. A few seconds.
    go test -run 'Alloc' ./internal/...
else
    echo "check.sh: CGO_ENABLED=$(go env CGO_ENABLED) — race detector unavailable, running tests without -race" >&2
    go test ./...
fi
