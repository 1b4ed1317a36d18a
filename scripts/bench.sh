#!/usr/bin/env bash
# Reproduce BENCH_rasterjoin.json — the binning + work-stealing numbers
# quoted in CHANGES.md/DESIGN.md. Short deterministic mode: seeded 1M-point
# taxi workload, 260 neighborhoods, 4 worker threads, median of 5 reps.
#
#   scripts/bench.sh             # 1M points, 4 threads → BENCH_rasterjoin.json
#   SCALE=200000 THREADS=2 scripts/bench.sh   # smaller/laptop-friendly run
#   scripts/bench.sh indexjoin   # just the raster-vs-index race (the
#                                # `index_join` series of the JSON): bounded
#                                # raster vs exact `.ubs` index join across
#                                # region-set sizes, with the crossover point
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

SCALE="${SCALE:-1000000}"
THREADS="${THREADS:-4}"
REPS="${REPS:-5}"
OUT="${OUT:-BENCH_rasterjoin.json}"

if [ "${1:-}" = "indexjoin" ]; then
  exec cargo run --release -p urbane-bench --bin repro -- \
    --exp indexjoin --scale "$SCALE" --threads "$THREADS" --reps "$REPS"
fi

cargo run --release -p urbane-bench --bin repro -- \
  --exp bench --scale "$SCALE" --threads "$THREADS" --reps "$REPS" --json "$OUT"
