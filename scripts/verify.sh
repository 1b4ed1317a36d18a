#!/usr/bin/env bash
# Run the urbane-verify ε-certification harness and write VERIFY_report.json.
#
# The fast corpus (default) finishes in well under a second after the build:
# 15 differential workloads ≈ 285 runs across bounded / weighted / accurate
# × threads {1,4} × row order {generator, clustered}, each mode prepared,
# and the index join, plus the metamorphic laws. The full sweep quadruples
# the corpus.
#
#   scripts/verify.sh                 # fast corpus → VERIFY_report.json
#   VERIFY_FULL=1 scripts/verify.sh   # full sweep (~60 workloads, ~1100 runs)
#   scripts/verify.sh --seed 7 --out /tmp/report.json   # extra flags pass through
#
# Exit status is 0 iff every differential run certified its budget and every
# metamorphic law held; the report is written either way.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo run --release -p urbane-verify --bin verify -- "$@"
