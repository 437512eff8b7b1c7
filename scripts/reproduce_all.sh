#!/usr/bin/env bash
# Regenerates every experiment artifact in results/ (see EXPERIMENTS.md).
# Takes ~10 minutes on one core, plus ~45 minutes if BENCH=1.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p orpheus-cli -p orpheus-capi

CLI=target/release/orpheus-cli
mkdir -p results

echo "== EXP-F2: Figure 2 (full inputs, median of 5) =="
$CLI figure2 --repeats 5               | tee results/figure2_full.txt
echo "== EXP-F2a: DarkNet prose claim =="
$CLI figure2 --models resnet18,resnet50 --include-darknet --repeats 2 \
                                       | tee results/figure2_darknet.txt
echo "== EXP-F2b: depthwise ablation =="
$CLI depthwise --hw 224                | tee results/depthwise_224.txt
echo "== EXP-T1 / EXP-T1p: Table I =="
$CLI table1                            | tee results/table1.txt
$CLI table1 --measured                 | tee results/table1_measured.txt
echo "== Ablation: graph simplification =="
$CLI simplify --model resnet18 --hw 224 --repeats 3 | tee results/simplify_resnet18.txt
$CLI simplify --model mobilenet --hw 224 --repeats 3 | tee results/simplify_mobilenet.txt
echo "== Ablation: conv algorithm sweep (calibrates the heuristic) =="
$CLI sweep --channels 3,8,16,32,64,128,256 --hws 8,16,32,56 > results/conv_sweep.csv
echo "wrote results/conv_sweep.csv"
echo "== Ablation: selection policy =="
$CLI policy --model resnet18 --repeats 3 | tee results/policy_resnet18.txt
$CLI policy --model wrn-40-2 --repeats 3 | tee results/policy_wrn.txt
echo "== Backend validation =="
$CLI validate --model tinycnn

echo "== Benchmark artifact (benchmark/out/BENCH_<git-sha>.json) =="
# The per-revision performance pin: four workloads, end-to-end and per-layer
# metrics. Diff two revisions with `bash benchmark/run.sh compare A.json B.json`.
bash benchmark/run.sh

echo "== Python bindings round trip =="
$CLI export --model lenet --out /tmp/lenet.onnx
(cd bindings/python && python3 demo.py /tmp/lenet.onnx)

if [ "${BENCH:-0}" = "1" ]; then
  echo "== Criterion benches =="
  cargo bench --workspace 2>&1 | tee bench_output.txt
fi
echo "all experiments regenerated"
