#!/usr/bin/env bash
# Builds the `approxql` CLI and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm_query --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload mutate --runs 10 --seconds 25
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p approxql-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_APPROXQL="$CARGO_TARGET_DIR/release/approxql"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
