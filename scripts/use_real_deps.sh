#!/usr/bin/env bash
# Swap the vendored offline dependency stand-ins (vendor/rand, vendor/serde,
# vendor/rayon, vendor/proptest) for the real crates.io releases.
#
# The workspace vendors API-compatible subsets of these crates because the default
# build image has no route to crates.io. The vendored surfaces track the real crates,
# so when network is available the real crates should drop in with no source changes —
# this script rewrites the workspace manifest accordingly and is used by the
# `real-deps` CI job (continue-on-error) to catch API drift early.
#
# Usage: scripts/use_real_deps.sh   (run from the repository root; requires network)
set -euo pipefail

MANIFEST="Cargo.toml"

python3 - "$MANIFEST" <<'EOF'
import re
import sys

path = sys.argv[1]
src = open(path).read()

# Point the external dependencies at crates.io instead of vendor/.
replacements = {
    'proptest = { path = "vendor/proptest" }':
        'proptest = { version = "1", default-features = false, features = ["std"] }',
    'rand = { path = "vendor/rand" }': 'rand = "0.8"',
    'rayon = { path = "vendor/rayon" }': 'rayon = "1.10"',
    'serde = { path = "vendor/serde", features = ["derive"] }':
        'serde = { version = "1", features = ["derive"] }',
}
for old, new in replacements.items():
    if old not in src:
        sys.exit(f"expected dependency line not found in {path}: {old}")
    src = src.replace(old, new)

# Drop the vendored crates from the workspace member list.
src = re.sub(r'\n\s+"vendor/[a-z_]+",', "", src)

open(path, "w").write(src)
print("workspace manifest now targets real crates.io dependencies")
EOF

rm -f Cargo.lock
cargo fetch
echo "real dependencies resolved; run 'cargo build --workspace && cargo test -q' to verify"
