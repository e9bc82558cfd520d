#!/usr/bin/env bash
# Perf-regression gate: runs the deterministic perf smoke (cycle counts from the
# simulator + wall-clock ratio metrics from the serving hot paths) and compares it
# against the committed baselines in BENCH_BASELINE.tsv (one tab-separated row per
# metric). Fails (nonzero exit) when any gated metric regressed by more than the
# tolerance (default 15%; 30% for the ratio/* rows).
#
# The sorted delta table is printed as Markdown on stdout; when running inside
# GitHub Actions it is also appended to the job summary.
#
# Usage: scripts/bench_check.sh [extra a3_bench_check args, e.g. --inject-slowdown 1.2]
set -euo pipefail

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

status=0
cargo run --release -q -p a3-eval --bin a3_bench_check -- check "$@" | tee "$out" || status=$?

if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    cat "$out" >> "$GITHUB_STEP_SUMMARY"
fi

exit "$status"
