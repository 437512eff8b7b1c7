#!/usr/bin/env bash
# The benchmark's one entry point: builds the harness, then hands every
# argument to it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke] [--repeat K]   all runs, one child each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1      one run, one result line
#   benchmark/run.sh compare BASE.json NEW.json
#
# Run it from the root of the checkout. It builds with the crates beside it
# (../crates), so in a directory that holds only the benchmark it fails.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Hot loops start on a cache line. Cargo hashes the checkout's path into every
# symbol name, so the same source built in two directories is laid out
# differently, and where the GEMM and im2col loops happen to fall decided 5-7%
# of a WRN-40-2 run (18.3 / 19.3 / 19.5 ms from three directories). With the
# loops aligned the three builds agree, and two commits can be compared.
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-loops=64"

# Build output goes to stderr: the result line must be the last of stdout.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export ORPHEUS_BENCH_DIR="$here"
export ORPHEUS_BENCH_SHA="${ORPHEUS_BENCH_SHA:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo nogit)}"
export ORPHEUS_BENCH_RUSTC="$(rustc --version), RUSTFLAGS:$RUSTFLAGS"
exec "$target/release/orpheus-benchmark" "$@"
