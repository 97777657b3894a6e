#!/usr/bin/env bash
# Builds ta-cli, ta-serve and tabench into one target directory, then
# runs tabench with the given arguments. Run from the repository root:
#
#   bash tabench/run.sh --workload cli_v1 --seed 1 --seconds 10 --trace 0
#
# The target directory is $CARGO_TARGET_DIR, or .bench_build when unset.
# Build output goes to stderr; tabench's JSON lines go to stdout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ta --bins >&2
cargo build --release --offline --quiet --manifest-path tabench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/tabench" "$@"
