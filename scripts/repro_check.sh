#!/usr/bin/env bash
# Reproduction pin: runs every experiment once (`a3_repro --fast`) at both SIMD
# dispatch levels, as built and under A3_FORCE_SCALAR=1, and checks each stdout's
# SHA-256 against scripts/repro_fast.sha256. The output is identical run to run;
# the two levels differ only in the error columns of the SIMD exact rows. The
# `avx2` hash needs an AVX2 host: without AVX2 both runs take the scalar path.
#
# A change that means to move the output replaces the hash this script prints
# and says why in CHANGES.md.
#
# Usage: scripts/repro_check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

pins="$PWD/scripts/repro_fast.sha256"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

repro() {
    cargo run -q --release --locked -p a3-eval --bin a3_repro -- --fast
}
repro > "$out/avx2"
A3_FORCE_SCALAR=1 repro > "$out/scalar"

cd "$out"
if ! sha256sum --check "$pins"; then
    echo "a3_repro --fast stdout moved; this build's hashes:" >&2
    sha256sum avx2 scalar >&2
    exit 1
fi
