#!/usr/bin/env bash
# Paired A/B of two commits through the repo's one benchmark — the protocol
# of ROADMAP rule (a) and the choosing-metrics guide §8, so nobody hand-rolls
# it again: alternating sides, one seed per pair, one `compare` at the end.
#
#   scripts/ab.sh <refA> <refB> [--workload W] [--pairs N]
#
# A is the base. Each side is a git ref, or a directory that already holds a
# checkout (`.` measures the working tree, uncommitted edits included). A
# ref is checked out into a scratch clone under ${TMPDIR:-/tmp} — a clone,
# not a `git worktree`: a worktree registers itself in this repo's .git, and
# the benchmark must leave the repo it measures alone. Pair k (1..N, default
# 10) runs `benchmark/run.sh [--workload W] --seed k --trace 0` on both
# sides, A first when k is odd, B first when k is even; each side's
# result.json is kept as <scratch>/results/{A,B}-k.json. The last thing
# printed is B's `benchmark/run.sh compare BENCHMARK.json --a … --b …`, whose
# exit status (non-zero on any `worse` row) is this script's.
#
# Without --workload every pair runs all five workloads (~2 min a side).
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <refA|dir> <refB|dir> [--workload W] [--pairs N]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
ref_a="$1"
ref_b="$2"
shift 2
workload=()
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=(--workload "${2:?--workload needs a name}"); shift 2 ;;
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        *) usage ;;
    esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="$(mktemp -d "${TMPDIR:-/tmp}/urbane-ab.XXXXXX")"
mkdir -p "$scratch/results"

checkout() { # checkout <ref-or-dir> <side>: prints the directory to run in
    if [ -d "$1" ]; then
        (cd "$1" && pwd)
        return
    fi
    local sha
    sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
    git clone --quiet --no-checkout "$root" "$scratch/$2"
    git -C "$scratch/$2" checkout --quiet --detach "$sha"
    echo "$scratch/$2"
}
dir_a="$(checkout "$ref_a" A)"
dir_b="$(checkout "$ref_b" B)"
echo "ab.sh: A = $ref_a in $dir_a" >&2
echo "ab.sh: B = $ref_b in $dir_b" >&2

run_side() { # run_side <side> <dir> <seed>
    (cd "$2" && bash benchmark/run.sh ${workload[@]+"${workload[@]}"} --seed "$3" --trace 0) \
        > "$scratch/results/$1-$3.log"
    cp "$2/benchmark/out/result.json" "$scratch/results/$1-$3.json"
    echo "ab.sh: pair $3 side $1 done" >&2
}

for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run_side A "$dir_a" "$k"
        run_side B "$dir_b" "$k"
    else
        run_side B "$dir_b" "$k"
        run_side A "$dir_a" "$k"
    fi
done

echo "ab.sh: results in $scratch/results" >&2
cd "$scratch/results"
a_files=()
b_files=()
for k in $(seq 1 "$pairs"); do
    a_files+=("A-$k.json")
    b_files+=("B-$k.json")
done
# `compare` wants every workload its benchmark file names; with one workload
# run, hand it that file cut down to the one (same metrics, same bounds).
bench="$dir_b/BENCHMARK.json"
if [ ${#workload[@]} -gt 0 ]; then
    bench="$scratch/BENCHMARK.${workload[1]}.json"
    {
        printf '{\n  "workloads": [{"name": "%s"}],\n' "${workload[1]}"
        awk '/^  "end_to_end": \[/,/^  \],?$/' "$dir_b/BENCHMARK.json" | sed '$ s/,$//'
        printf '}\n'
    } > "$bench"
fi
bash "$dir_b/benchmark/run.sh" compare "$bench" --a "${a_files[@]}" --b "${b_files[@]}"
