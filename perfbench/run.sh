#!/usr/bin/env bash
# Builds the programs under test and the benchmark runner from source,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Build output goes to stderr; the runner's last stdout line is the
# result. CARGO_TARGET_DIR defaults to .bench_build in the current
# directory.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p edm-serve --bin edm-serve -p edm-harness --bin edm-probe >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/edm-perfbench" --bin-dir "$target/release" "$@"
