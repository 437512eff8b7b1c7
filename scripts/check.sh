#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the full workspace test suite and the
# release-binary smokes. It asserts correctness only and compares no wall
# clock: performance is judged by benchmark/ (see benchmark/README.md).
# Network-free — every dependency is an in-tree path crate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== micro-kernel tiers (every tier this host supports) =="
# Dispatch runs only the fastest tier, so on an AVX-512 host nothing above
# exercises the AVX2 kernel. This proves scalar and every SIMD tier the CPU
# supports bit for bit against its per-element chain on all three packed
# drivers, and its log names each tier run and prints
# "SKIPPED: <tier> (host lacks ...)" for each one the CPU cannot run.
cargo test -q -p orpheus-gemm --lib packed::tier_tests -- --nocapture

echo "== forced-scalar differential lane (ORPHEUS_FORCE_SCALAR=1) =="
# On SIMD hosts the runtime dispatcher selects the fastest SIMD micro-kernel
# (AVX-512, else AVX2+FMA), so the default test run proves SIMD correctness
# on that tier. This lane re-runs the
# scalar-vs-SIMD differential suites with the dispatcher pinned to the
# scalar micro-kernel (through EngineBuilder's force_scalar default), so
# the scalar path keeps its own green proof on every host.
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-gemm --test simd_parity
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus --test simd_differential
# The panel-loader oracles (virtual-column panels byte-identical to packed
# im2col; implicit-GEMM conv vs Direct and bit-for-bit vs the eager variant)
# under the scalar micro-kernel too.
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-gemm --lib packed::prepacked_tests
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-ops --lib conv::im2col_gemm
# The depthwise stencil dispatches on the same micro-kernel: its unit tests
# and the widened depthwise equivalence property, on the scalar stencil.
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-ops --lib conv::depthwise
ORPHEUS_FORCE_SCALAR=1 cargo test -q -p orpheus-ops --test conv_equivalence depthwise_algorithms_agree

echo "== pass-pipeline sanitizer (debug assertions) =="
# Debug builds run the orpheus-verify sanitizer after every simplification
# pass; this exercises it on the standard pipeline plus the broken-pass
# attribution tests.
cargo test -q -p orpheus-verify --test sanitizer

echo "== fuzz smoke (release, all zoo models) =="
# The workspace tests already run a >=10k-iteration campaign on the small
# models; this release pass additionally mutates all five Figure 2 exports.
cargo build --release -p orpheus-cli -q
./target/release/orpheus-cli fuzz --model all --iters 400

echo "== lint (release, all zoo models + ONNX round trip) =="
# Every zoo model must verify clean (0 errors); the file path exercises the
# ONNX import half of the lint pipeline.
./target/release/orpheus-cli lint --model all
LINT_TMP="$(mktemp -d)"
trap 'rm -rf "$LINT_TMP"' EXIT
./target/release/orpheus-cli export --model wrn40_2 --out "$LINT_TMP/wrn40_2.onnx"
./target/release/orpheus-cli lint "$LINT_TMP/wrn40_2.onnx" --json > /dev/null

echo "== plan soundness (release, all zoo models x full bucket ladder) =="
# The static execution-plan checker (ORV015-ORV022) proves every model's
# arena-reuse plan sound at every batch bucket up to 8: no use after
# reclaim, no aliasing of live slots, valid view-moves, consistent ladder.
./target/release/orpheus-cli lint --model all --max-batch 8 --check-plan

echo "== plan check at load (debug + release, corruption hook) =="
# Every build re-proves plan soundness inside Engine::load; the corruption
# hook injects one known-bad mutation per ORV code and the load must be
# rejected with the offending bucket and code attributed. The release run
# proves the check is not a debug-only fork.
cargo test -q -p orpheus --test plan_sanitizer
cargo test -q --release -p orpheus --test plan_sanitizer

echo "== zero-allocation arena executor =="
# Counting-allocator proof that steady-state Session::run never touches the
# heap, plus zoo-wide bit-identity vs. the no-reuse plan on the same
# executor and the runtime-footprint <= static-prediction pin.
cargo test -q -p orpheus --test zero_alloc --test planned_execution

echo "== serve smoke (release: clean + fault-injected load-gen) =="
# The serving core must shed-or-serve every request, keep every injected
# panic isolated (worker panics: 0), and drain clean — both on a healthy
# model and under 25% randomized layer faults. The binary itself exits
# non-zero if any worker dies or a request never resolves.
./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 8 \
  --requests 200 --clients 4 --workers 2 --queue-depth 16 \
  | tee "$LINT_TMP/serve_clean.txt"
grep -q "drain: clean" "$LINT_TMP/serve_clean.txt"
grep -q "worker panics: 0" "$LINT_TMP/serve_clean.txt"
./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 8 \
  --requests 300 --clients 6 --workers 3 --queue-depth 16 \
  --fault pack --fault-mode flaky:250:7 \
  | tee "$LINT_TMP/serve_faulted.txt"
grep -q "drain: clean" "$LINT_TMP/serve_faulted.txt"
grep -q "worker panics: 0" "$LINT_TMP/serve_faulted.txt"

echo "== batched serve smoke (release: dynamic batching) =="
# Dynamic batching must coalesce (a "batched:" line: at least one batched
# run), keep every worker alive and drain clean. Whether it is also faster
# is the benchmark's question (wrn_serve_burst), not this script's.
./target/release/orpheus-cli serve --model tiny_cnn --load-gen --hw 32 \
  --requests 600 --clients 16 --workers 2 --queue-depth 64 \
  --max-batch 8 --batch-wait-us 200 \
  | tee "$LINT_TMP/serve_batched.txt"
grep -q "drain: clean" "$LINT_TMP/serve_batched.txt"
grep -q "worker panics: 0" "$LINT_TMP/serve_batched.txt"
grep -q "batched:" "$LINT_TMP/serve_batched.txt"

echo "== repo benchmark smoke (benchmark/run.sh --smoke) =="
# Builds the standalone harness against the crates' public surface and runs
# all four workloads for 2 s each: every op checked against the reference
# session, steady-state allocations == 0, replayed convs bit-equal.
bash benchmark/run.sh --smoke

echo "all checks passed"
