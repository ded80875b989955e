#!/usr/bin/env bash
# Builds the program under test (`ultrawiki`) and the `servebench` binary from
# source, then runs the benchmark. Usage, from the repository root:
#
#   bash servebench/run.sh --workload ret_hot --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON
# result. Artifacts go to $CARGO_TARGET_DIR (default `target`).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -q -p ultrawiki --bin ultrawiki 1>&2
cargo build --release --offline -q --manifest-path servebench/Cargo.toml 1>&2
exec "$target/release/servebench" --ultrawiki "$target/release/ultrawiki" \
    --work "$target/servebench" "$@"
