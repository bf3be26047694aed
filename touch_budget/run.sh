#!/usr/bin/env bash
# One command: build release, run every workload untraced (end-to-end
# metrics, digests verified), then traced (per-layer metrics, budget stack,
# span files under touch_budget/out/). Every metric is printed by name with
# its unit. Extra arguments go to both steps, e.g. `--seed 7` or `--quick`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path touch_budget/Cargo.toml
bin="$CARGO_TARGET_DIR/release/touch_budget"
"$bin" run "$@"
"$bin" trace "$@"
