#!/bin/sh
# check.sh — the full local verification suite: build everything, vet
# everything, require gofmt-clean sources, run the tianhelint invariant
# analyzers, and run every test — under the race detector when the toolchain
# supports it. CI and `make check` both run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# internal/blas has one amd64 assembly kernel (vet's asmdecl checks its stub
# above); everywhere else the portable kernel is the only path, so it must
# build and vet clean where the .s file is excluded.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/blas
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
# verdict tables must match across parallelism.
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
