#!/usr/bin/env bash
# Regenerates BENCH_BASELINE.tsv from a fresh run of the deterministic perf smoke.
# Use this after an *intentional* performance change (a faster kernel, a revised
# cycle model): review the printed diff (one changed row per moved metric; it
# documents exactly what moved) and commit it together with the change that
# caused it.
#
# Usage: scripts/bench_update.sh
set -euo pipefail

cd "$(dirname "$0")/.."

cargo run --release -q -p a3-eval --bin a3_bench_check -- update
git --no-pager diff BENCH_BASELINE.tsv || true
