#!/usr/bin/env bash
# The repo's benchmark, in one command.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--quick] [--server-args "--flag value ..."]
#   benchmark/run.sh compare BENCHMARK.json --a A.json [...] --b B.json [...]
#   benchmark/run.sh selftest
#
# Builds the release urbane-serve and urbane-cli and the benchmark's own
# packages offline, then runs every workload (or the one named): answers
# are checked, every metric is printed by name with its unit, and
# benchmark/out/result.json is written. Exit code 0 means every answer was
# correct and every workload still exercised its mechanism. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
caller="$PWD"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "run.sh: no urbane workspace around $here: nothing to build or measure" >&2
    exit 2
fi

export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
# The benchmark's packages are workspaces of their own; their output goes
# under the root target directory so one .gitignore line covers it all.
bench_target="$target/benchmark"

build() { # build <target-dir> <cargo args...>; cargo reports on stderr
    local dir="$1"
    shift
    CARGO_TARGET_DIR="$dir" cargo build --release --offline --quiet "$@" >&2
}

build "$bench_target" --manifest-path benchmark/loadgen/Cargo.toml
loadgen="$bench_target/release/loadgen"

if [ "${1:-}" = compare ]; then
    shift
    cd "$caller" # the result files are named from where the caller stands
    exec "$loadgen" compare "$@"
fi

build "$target" -p urbane-serve -p urbane --bins

if [ "${1:-}" = selftest ]; then
    # The unit tests, and every workload at smoke scale against a live server.
    URBANE_BIN_DIR="$target/release" CARGO_TARGET_DIR="$bench_target" \
        cargo test --release --offline --manifest-path benchmark/loadgen/Cargo.toml
    exit
fi

# The traced run needs the probe, which links the workspace crates. If a
# refactor broke its build, say so and go on: the gate does not depend on it.
probe=()
want_trace=0
prev=""
for arg in "$@"; do
    if [ "$arg" = --trace ]; then want_trace=1; fi
    if [ "$prev" = --trace ] && [ "$arg" = 0 ]; then want_trace=0; fi
    prev="$arg"
done
if [ "$want_trace" = 1 ] && [ -f benchmark/probe/Cargo.toml ]; then
    if build "$bench_target" --manifest-path benchmark/probe/Cargo.toml; then
        probe=(--probe-bin "$bench_target/release/probe")
    else
        echo "run.sh: benchmark/probe did not build; the traced metrics will read 0" >&2
    fi
fi

exec "$loadgen" run --bin-dir "$target/release" --out-dir "$here/out" ${probe[@]+"${probe[@]}"} "$@"
