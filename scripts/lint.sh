#!/usr/bin/env bash
# Run the workspace invariant linter (see DESIGN.md §11 and §16).
#
#   scripts/lint.sh                                    # exit 0 clean, 1 on any finding, 2 on an error
#   scripts/lint.sh --json                             # same, machine-readable
#   scripts/lint.sh --trace FILE:LINE
#                                 # print the witness path (entry point ->
#                                 # call chain -> offending line) behind the
#                                 # finding at FILE:LINE; fails if nothing
#                                 # fires there
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

exec cargo run --release -p urbane-lint -- check "$@"
