#!/usr/bin/env bash
# Build the release binaries from source, then run the benchmark:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root); spans and scratch journals go under its perfbench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p rvv-serve --bin rvv-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
exec "$target/release/perfbench" --serve-bin "$target/release/rvv-serve" \
  --out-dir "$target/perfbench" --commit "$commit" --rustc "$(rustc --version)" "$@"
