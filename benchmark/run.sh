#!/usr/bin/env bash
# The repo benchmark, one command: build the harness offline in release
# mode, then hand over to it.
#
#   benchmark/run.sh [--seed S] [--trace] [--repeat-check]
#       every workload, each in its own process; one summary table and
#       benchmark/out/results.json. --trace adds the traced runs (per-layer
#       metrics, benchmark/out/trace_<workload>.json). --repeat-check runs
#       two full sets and fails if they disagree beyond the bounds.
#
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one workload (what the benchmark driver calls); the last line of
#       standard output is the result object.
set -euo pipefail

# Run from the root of the checkout, wherever we were called from.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target_dir="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout belongs to the harness.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

mode=(--all)
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        mode=()
    fi
done
exec "$target_dir/release/pov-benchmark" ${mode[@]+"${mode[@]}"} "$@"
