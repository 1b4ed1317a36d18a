#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Everything runs offline — the workspace
# vendors its few dependencies in-tree (vendor/), so no registry access is
# needed or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q
# The bit-identity claims (DESIGN.md §7, §9, §15, §18) again under the
# optimizer the server ships with: footers on == footers stripped, one
# worker == several in either row order, stored join == in-memory join, the
# accurate pass's boundary rows == the exact join, the zone walk == the
# filter oracle on every tile, and the served answers == the committed
# goldens byte for byte, must not depend on the build profile. Nor must the fused point pass agreeing with the
# reference draw, or the walk's set bits (raster-join's unit tests), or the
# grid's cell-local point-in-polygon agreeing with `contains`
# (spatial-index's unit tests: every cell corner, cell edge, polygon vertex
# and edge piece, the reach slack, and seeded points).
cargo test -q --release -p urbane-bench \
  --test clustered_equivalence --test store_subsystem --test cross_method_equivalence \
  --test serve_golden
cargo test -q --release -p raster-join
# Levels resolved from the kept point pass must equal fresh draws bit for bit in release too.
cargo test -q --release -p urbane
cargo test -q --release -p spatial-index
# The scanline fill's reference checks (point-in-polygon sampling at pixel
# centres, the shared-edge tie rule, the traversal and projection proptests)
# under the shipped profile too: the fill is the one polygon pass.
cargo test -q --release -p gpu-raster -p urbane-geom
# The answer writer's byte identity with the `Json` tree it replaced, and the
# one-write response framing, under the shipped profile too.
cargo test -q --release -p urbane-serve
cargo clippy --workspace --all-targets -- -D warnings
# Fault injection sits behind the default-on `fault-injection` feature: the
# executor must build without it too.
cargo build -q -p raster-join --no-default-features

# Invariant lint: the per-line rules (panic-freedom, atomics orderings,
# catch_unwind pairing, bounded growth, determinism) plus the call-graph
# analyses (cancel-poll reachability, lock ordering, wire-input taint; see
# DESIGN.md §11 and §16). Fails on any unsuppressed finding. The workspace
# is scanned once for the machine-readable report, kept as a CI artifact; only
# a failing scan is rerun for the human-readable file:line report. The rule
# catalog has a floor — a refactor that silently drops a rule fails here, not
# in review.
if ! cargo run --release -p urbane-lint -- check --json > LINT_report.json; then
  cargo run --release -p urbane-lint -- check || true
  exit 1
fi
rule_count="$(sed -n 's/.*"rules": \[\([^]]*\)\].*/\1/p' LINT_report.json \
  | grep -o '"[a-z-]*"' | wc -l)"
[ "$rule_count" -ge 10 ] || {
  echo "lint rule catalog shrank to $rule_count rules (floor: 10)"
  exit 1
}
echo "lint report OK ($rule_count rules) — artifact: LINT_report.json"

# Verify stage: the ε-certification harness on the fast corpus (15 seeded
# workloads ≈ 285 differential runs + the metamorphic laws, sub-second
# after the build). Fails if any run exceeds its analytic error budget or
# any law is violated. VERIFY_FULL=1 in the environment quadruples the
# corpus for the nightly sweep — same command, same report schema.
./scripts/verify.sh --quiet --out VERIFY_report.json
echo "verify stage OK"

# Store smoke: build a `.ubs` out-of-core store with the CLI, prove the
# build is byte-deterministic (at a chunk size below a zone and at the
# default), refuse a version-1 file by name, answer an exact index join
# straight off the directory, and cold-boot the server against the store
# directory (--store-dir) with a streamed mode=index query that must not
# page the table in. The resident and the streamed exact join must also agree
# under a filter.
store_dir="$(mktemp -d)"
target/release/urbane-cli generate --rows 20000 --seed 7 \
  --out "$store_dir/taxi.upt" 2> /dev/null
for chunk_rows in 65536 4096; do # the 4096-row build is the one kept
  for out in taxi rebuild; do
    target/release/urbane-cli build-store --data "$store_dir/taxi.upt" \
      --out "$store_dir/$out.ubs" --chunk-rows "$chunk_rows" 2> /dev/null
  done
  cmp "$store_dir/taxi.ubs" "$store_dir/rebuild.ubs" \
    || { echo "store build is not byte-deterministic at --chunk-rows $chunk_rows"; exit 1; }
done

# A version-1 store (the prelude's u16 at byte 4) is refused, and the error
# says how to get a version-2 one.
printf '\001\000' | dd of="$store_dir/rebuild.ubs" bs=1 seek=4 conv=notrunc 2> /dev/null
if v1_err="$(target/release/urbane-cli query --data "$store_dir/rebuild.ubs" \
  --regions grid:8 --agg count --mode index 2>&1 > /dev/null)"; then
  echo "a version-1 store was not refused"; exit 1
fi
echo "$v1_err" | grep 'unsupported .ubs version 1' | grep 'urbane-cli build-store' > /dev/null \
  || { echo "version-1 refusal does not say to rebuild: $v1_err"; exit 1; }
rm -f "$store_dir/rebuild.ubs"

# The exact index join over the store must rank regions identically to the
# accurate raster path over the original table.
idx="$(target/release/urbane-cli query --data "$store_dir/taxi.ubs" \
  --regions grid:8 --agg count --mode index --top 5 2> /dev/null)"
acc="$(target/release/urbane-cli query --data "$store_dir/taxi.upt" \
  --regions grid:8 --agg count --mode accurate --top 5 2> /dev/null)"
[ "$idx" = "$acc" ] || {
  echo "index join diverged from accurate raster:"
  printf 'index:\n%s\naccurate:\n%s\n' "$idx" "$acc"
  exit 1
}

# The two exact joins walk one zone plan: the resident join over the table
# the service clusters at registration and the streamed join off the store's
# directory must print the same filtered answer.
exact_join() {
  target/release/urbane-cli query --data "$1" --mode index --agg sum:fare \
    --range fare:5:60 --top 5 2> /dev/null
}
resident="$(exact_join "$store_dir/taxi.upt")"
streamed="$(exact_join "$store_dir/taxi.ubs")"
[ "$resident" = "$streamed" ] || {
  echo "resident and streamed exact joins diverged:"
  printf 'resident:\n%s\nstreamed:\n%s\n' "$resident" "$streamed"
  exit 1
}

# Explore on the file format: `explore` asks the same service as `query`,
# which clusters a `.upt` file as `build-store` lays out a `.ubs` one, so the
# f32 pixel blend sees one row order and the two files print the same bytes.
target/release/urbane-cli generate --rows 500000 --seed 2 \
  --out "$store_dir/explore.upt" 2> /dev/null
target/release/urbane-cli build-store --data "$store_dir/explore.upt" \
  --out "$store_dir/explore.ubs" 2> /dev/null
explore() {
  target/release/urbane-cli explore --data "$1" --agg sum:fare --bucket day 2> /dev/null
}
from_upt="$(explore "$store_dir/explore.upt")"
from_ubs="$(explore "$store_dir/explore.ubs")"
[ "$from_upt" = "$from_ubs" ] || {
  echo "explore depends on the file format:"
  diff <(printf '%s\n' "$from_upt") <(printf '%s\n' "$from_ubs") || true
  exit 1
}
rm -f "$store_dir/explore.upt" "$store_dir/explore.ubs"

serve_log="$(mktemp)"
target/release/urbane-serve --port 0 --rows 2000 --workers 2 \
  --store-dir "$store_dir" > "$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's#^urbane-serve listening on http://##p' "$serve_log")"
  [ -n "$addr" ] && break
  sleep 0.2
done
[ -n "$addr" ] || { echo "urbane-serve did not report an address"; cat "$serve_log"; exit 1; }

# Two requests on one keep-alive connection (curl reuses it for both URLs):
# a stricter HTTP parser than ours reads the one-write framing, and the
# second answer must start where the first one's Content-Length ends.
both="$(curl -fsS "http://$addr/healthz" "http://$addr/datasets")"
[ "$(printf '%s\n' "$both" | sed -n 1p)" = "ok" ] \
  && printf '%s\n' "$both" | sed -n 2p | grep '^{"datasets":\[.*"name":"taxi"' > /dev/null \
  || { echo "keep-alive /healthz + /datasets answered: $both"; exit 1; }
curl -fsS -X POST -d '{"dataset":"taxi","level":1,"mode":"index"}' \
  "http://$addr/query" | grep '"error_bound":0' > /dev/null
curl -fsS "http://$addr/metrics" | grep '^urbane_store_streamed_queries_total 1' > /dev/null
curl -fsS "http://$addr/metrics" | grep '^urbane_store_page_ins_total 0' > /dev/null

# Pass reuse in the served binary: a drill's later level resolves the kept
# point pass instead of drawing. The first level-0 pass records only level
# 0's boundary rows (level 1's raster is not prepared yet), so level 1
# draws, and its pass records both levels' rows: the second level-0 query
# reuses it. Resident `crime`, so the store's page-in count is untouched.
drill() {
  curl -fsS -X POST -d "{\"dataset\":\"crime\",\"level\":$1,\"mode\":\"accurate\"}" \
    "http://$addr/query" | grep '"cached":false' > /dev/null
}
drill 0
drill 1
curl -fsS "http://$addr/metrics" | grep '^urbane_pass_reuse_total 0' > /dev/null \
  || { echo "a pass was reused before it covered the level"; exit 1; }
drill 0
curl -fsS "http://$addr/metrics" | grep '^urbane_pass_reuse_total 1' > /dev/null \
  || { echo "the second level-0 query did not reuse the kept pass"; exit 1; }

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"
rm -rf "$store_dir"
echo "store smoke OK"

# Yardstick contract: the gate's load generator aborts a run when a
# scraped /metrics series is missing or the wire answer stops parsing, and
# its probe links the workspace crates by name. Run the loadgen's unit tests
# plus every workload at smoke scale against the server just built, then
# build the probe (into run.sh's own target directory) — so a change that
# drops a series or breaks the probe surface fails here instead of as
# `run_failed` at the gate.
bash benchmark/run.sh selftest
CARGO_TARGET_DIR=target/benchmark \
  cargo build --release --offline --manifest-path benchmark/probe/Cargo.toml
echo "yardstick contract OK"
