#!/usr/bin/env bash
# Paired A/B comparison of two revisions on one perfbench workload.
#
# Builds perfbench once per side, each from a clean `git archive` checkout in a
# temporary directory, then alternates the two binaries A B B A A B ... for
# <pairs> pairs, each pair on a fresh seed that both of its runs share. Every
# run's result line (the JSON object perfbench prints last) is parsed; the
# script fails if any run is incorrect or if the change fails a larger share of
# its requests than the parent.
#
# For each end-to-end metric declared in BENCHMARK.json it prints every pair's
# two values, then each side's median and quartiles, the median of the paired
# B/A ratios, the pairs in which B was better (in the metric's direction) and a
# verdict by the benchmark's rule: "faster" when B is better in at least 9 of
# every 10 pairs and its median beats A's by more than A's interquartile range,
# "slower" for the same in the other direction, "unresolved" otherwise, and
# always with fewer than 10 pairs, which the rule needs. "faster" means better,
# whatever the metric's unit. The rule is stated for runs of BENCHMARK.json's
# `run_seconds`; runs of any other length mark every verdict "not a claim".
#
# Usage: scripts/ab.sh <parent-rev> <change-rev> <workload> <seconds> <pairs>
#   e.g. scripts/ab.sh HEAD HEAD babi_small 5 2     # A/A smoke test
#        scripts/ab.sh main HEAD babi_small 50 10   # a throughput claim
set -euo pipefail

if [[ $# -ne 5 ]]; then
    echo "usage: $0 <parent-rev> <change-rev> <workload> <seconds> <pairs>" >&2
    exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 seconds=$4 pairs=$5
if ! [[ $seconds =~ ^[0-9]+$ && $pairs =~ ^[0-9]+$ && $pairs -ge 1 ]]; then
    echo "ab.sh: <seconds> and <pairs> must be whole numbers, <pairs> at least 1" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

# Builds perfbench from a clean checkout of revision $1 into $work/$2.
build() {
    local rev=$1 side=$2
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "building $side = $rev ($(git rev-parse --short "$rev"))" >&2
    CARGO_TARGET_DIR="$work/$side/perfbench/target" \
        cargo build --offline --release --quiet --manifest-path "$work/$side/perfbench/Cargo.toml"
}
build "$parent_rev" A
build "$change_rev" B

# The end-to-end metrics and their directions, one "name better" per line.
metrics=$(awk '
    /"end_to_end"/ { inside = 1 }
    inside && /\]/ { inside = 0 }
    inside && match($0, /"name": *"[^"]+"/) {
        name = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", name); sub(/"$/, "", name)
        better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
        print name, better
    }' "$work/B/BENCHMARK.json")
run_seconds=$(awk '/"run_seconds"/ { sub(/.*"run_seconds": */, ""); sub(/[^0-9].*/, ""); print }' \
    "$work/B/BENCHMARK.json")

# One line per run: side, pair, seed, correct, attempted, failed, then one
# "name=value" per end-to-end metric.
runs="$work/runs.txt"
: > "$runs"
seed0=$(( (RANDOM << 15 | RANDOM) + 1000 ))
echo "seeds $seed0 .. $((seed0 + pairs - 1)), $pairs pairs of $seconds s runs" >&2
run() {
    local side=$1 pair=$2 seed=$3 out
    out=$(cd "$work/$side" && ./perfbench/target/release/perfbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || true
    printf '%s\n' "$out" | tail -n 1 | awk -v side="$side" -v pair="$pair" -v seed="$seed" \
        -v names="$(cut -d' ' -f1 <<< "$metrics" | tr '\n' ' ')" '
        function field(key,   s) {
            if (!match($0, "\"" key "\":[^,}]*")) return "?"
            s = substr($0, RSTART, RLENGTH); sub(/^[^:]*:/, "", s); return s
        }
        function metric(key,   s) {
            if (!match($0, "\"" key "\":\\{\"value\":[^,}]*")) return "nan"
            s = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", s); return s
        }
        {
            line = side " " pair " " seed " " field("correct") " " field("attempted") " " field("failed")
            n = split(names, list, " ")
            for (i = 1; i <= n; i++) line = line " " list[i] "=" metric(list[i])
            print line
        }' >> "$runs"
    echo "  pair $pair $side seed $seed: $(tail -n 1 "$runs" | cut -d' ' -f4-6)" >&2
}
for ((pair = 0; pair < pairs; pair++)); do
    seed=$((seed0 + pair))
    if ((pair % 2 == 0)); then
        run A "$pair" "$seed"; run B "$pair" "$seed"
    else
        run B "$pair" "$seed"; run A "$pair" "$seed"
    fi
done

awk -v metrics="$metrics" -v pairs="$pairs" -v seconds="$seconds" -v run_seconds="$run_seconds" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Linear-interpolated percentile p of a[1..n], sorted in place.
    function pct(a, n, p,   h, lo) {
        sort(a, n)
        h = (n - 1) * p / 100 + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function copy(src, dst, n,   i) { for (i = 1; i <= n; i++) dst[i] = src[i] }
    {
        side = $1; pair = $2
        if ($4 != "true") bad = bad "  pair " pair " " side " (seed " $3 ") was incorrect\n"
        attempted[side] += $5; failed[side] += $6
        for (i = 7; i <= NF; i++) {
            split($i, kv, "=")
            value[side, pair, kv[1]] = kv[2] + 0
        }
    }
    END {
        m = split(metrics, lines, "\n")
        for (k = 1; k <= m; k++) {
            split(lines[k], nb, " ")
            line = sprintf("%-16s A/B by pair:", nb[1])
            for (p = 0; p < pairs; p++) {
                line = line sprintf(" %.4g/%.4g", value["A", p, nb[1]], value["B", p, nb[1]])
            }
            print line
        }
        printf "%-16s %-6s %26s %26s %8s %6s  %s\n", "metric", "better", \
            "A median [q1, q3]", "B median [q1, q3]", "B/A", "wins", "verdict"
        need = pairs < 10 ? pairs + 1 : int((9 * pairs + 9) / 10)
        for (k = 1; k <= m; k++) {
            split(lines[k], nb, " "); name = nb[1]; better = nb[2]
            wins = 0; losses = 0
            for (p = 0; p < pairs; p++) {
                a[p + 1] = value["A", p, name]; b[p + 1] = value["B", p, name]
                r[p + 1] = a[p + 1] == 0 ? 1 : b[p + 1] / a[p + 1]
                if (b[p + 1] != a[p + 1]) {
                    if ((b[p + 1] > a[p + 1]) == (better == "higher")) wins++; else losses++
                }
            }
            copy(a, t, pairs); am = pct(t, pairs, 50); aq1 = pct(t, pairs, 25); aq3 = pct(t, pairs, 75)
            copy(b, t, pairs); bm = pct(t, pairs, 50); bq1 = pct(t, pairs, 25); bq3 = pct(t, pairs, 75)
            copy(r, t, pairs); rm = pct(t, pairs, 50)
            gain = better == "higher" ? bm - am : am - bm
            spread = aq3 - aq1
            verdict = "unresolved"
            if (wins >= need && gain > spread) verdict = "faster"
            if (losses >= need && -gain > spread) verdict = "slower"
            if (seconds != run_seconds) verdict = verdict " (not a claim)"
            printf "%-16s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %8.4f %3d/%-2d  %s\n", \
                name, better, am, aq1, aq3, bm, bq1, bq3, rm, wins, pairs, verdict
        }
        printf "requests attempted: A %d, B %d; failed: A %d, B %d\n", \
            attempted["A"], attempted["B"], failed["A"], failed["B"]
        if (seconds != run_seconds) {
            printf "runs of %s s, not the benchmark'"'"'s %s s: no verdict above is a claim\n", \
                seconds, run_seconds
        }
        status = 0
        if (bad != "") { printf "incorrect runs:\n%s", bad; status = 1 }
        if (failed["B"] * attempted["A"] > failed["A"] * attempted["B"]) {
            print "the change fails a larger share of its requests"; status = 1
        }
        exit status
    }' "$runs"
