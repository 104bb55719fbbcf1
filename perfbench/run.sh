#!/usr/bin/env bash
# Build the release `hoiho` binary and the benchmark from source, then
# run the benchmark. Usage (from the repository root):
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh pin      # regenerate perfbench/pinned/
#
# Build output goes to stderr; stdout carries only the benchmark's
# report, whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hoiho-cli 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
