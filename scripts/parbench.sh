#!/bin/sh
# parbench.sh — measure the parallel sweep runner: run faultbench and
# figures at -par 1 (the legacy serial loop) and -par $PAR (default 8),
# verify the outputs are byte-identical, and report wall-clock speedups.
#
# The speedup numbers are honest wall-clock measurements on THIS host; the
# determinism check is meaningful on any machine, but a speedup near PAR
# needs at least PAR real cores. The script prints the host's core count
# next to the results so numbers are never quoted out of context.
set -eu

cd "$(dirname "$0")/.."

PAR="${PAR:-8}"
CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"

bindir="$(mktemp -d)"
outdir="$(mktemp -d)"
trap 'rm -rf "$bindir" "$outdir"' EXIT INT TERM

go build -o "$bindir" ./cmd/faultbench ./cmd/figures

# now_s prints wall-clock seconds with nanosecond resolution.
now_s() { date +%s.%N; }

echo "parbench: host has $CORES cores; comparing -par 1 vs -par $PAR"
echo
printf '%-12s %12s %12s %10s  %s\n' "tool" "par1 (s)" "par$PAR (s)" "speedup" "output"

run_tool() {
    name="$1"
    shift
    t0="$(now_s)"
    "$bindir/$name" -par 1 "$@" >"$outdir/$name.par1"
    t1="$(now_s)"
    "$bindir/$name" -par "$PAR" "$@" >"$outdir/$name.parN"
    t2="$(now_s)"
    # The figures ledger names its -par (and the command) in its header;
    # every other line must match.
    for f in "$outdir/$name.par1" "$outdir/$name.parN"; do
        grep -v -e '^  "par": ' -e '^  "command": ' "$f" >"$f.cmp" || true
    done
    if ! cmp -s "$outdir/$name.par1.cmp" "$outdir/$name.parN.cmp"; then
        printf '%-12s output DIFFERS between -par 1 and -par %s\n' "$name" "$PAR"
        diff "$outdir/$name.par1.cmp" "$outdir/$name.parN.cmp" | head -20 || true
        exit 1
    fi
    awk -v t0="$t0" -v t1="$t1" -v t2="$t2" -v name="$name" 'BEGIN {
        s = t1 - t0; p = t2 - t1
        spd = (p > 0) ? s / p : 0
        printf "%-12s %12.3f %12.3f %9.2fx  byte-identical\n", name, s, p, spd
    }'
}

run_tool faultbench
run_tool figures

echo
if [ "$CORES" != "unknown" ] && [ "$CORES" -lt "$PAR" ] 2>/dev/null; then
    echo "parbench: note: only $CORES cores — speedup is bounded by the host, not by the sweep runner"
fi
