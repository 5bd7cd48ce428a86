#!/usr/bin/env bash
# Builds `ard` from the repository's workspace and `e2e` from this
# package into one cargo target directory, then runs `e2e` with the
# arguments given. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload steady_low --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --all
#
# `e2e` looks for `ard` beside itself, so both builds must share the
# target directory: CARGO_TARGET_DIR if set, else ./target.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ar-svc --bin ard
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
