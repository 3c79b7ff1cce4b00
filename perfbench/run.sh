#!/usr/bin/env bash
# Builds the benchmark and the `dtucker-cli` server binary from source,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build artifacts go to $CARGO_TARGET_DIR
# (default `.bench_build`); cargo's output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --bin dtucker-cli >&2

# The revision is only a label for the host record; git may not look
# above the checkout for it.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --cli "$CARGO_TARGET_DIR/release/dtucker-cli" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" \
    --rev "$rev" \
    "$@"
