//! Zoo-wide scalar-vs-SIMD differential: a force-scalar engine (the pinned
//! scalar micro-kernel, bit-identical to the pre-SIMD packed path) must
//! agree with a default engine (runtime-dispatched: AVX-512 or AVX2+FMA
//! where the host has it) on every zoo model.
//!
//! Tolerance: each output element compounds one FMA-reassociation error
//! (~k·ε per GEMM, see `orpheus-gemm/tests/simd_parity.rs`) per GEMM-bound
//! layer; after softmax normalization the zoo's worst case stays well under
//! `1e-4` relative. On non-SIMD hosts both engines lower to the same scalar
//! kernels and the comparison is trivially bit-exact.

use orpheus::Engine;
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_tensor::Tensor;

/// Every in-tree model, at its smallest legal input (keeps debug-mode
/// runtime tolerable while still covering every layer kind in the zoo).
const ZOO: [ModelKind; 7] = [
    ModelKind::TinyCnn,
    ModelKind::LeNet5,
    ModelKind::Wrn40_2,
    ModelKind::MobileNetV1,
    ModelKind::ResNet18,
    ModelKind::ResNet50,
    ModelKind::InceptionV3,
];

fn run(model: ModelKind, force_scalar: bool) -> (Tensor, &'static str) {
    let hw = model.min_input_hw();
    let engine = Engine::builder()
        .threads(1)
        .force_scalar(force_scalar)
        .build()
        .unwrap();
    let network = engine.load(build_model_with_input(model, hw, hw)).unwrap();
    let dims = [1, model.input_dims()[1], hw, hw];
    let input = Tensor::from_fn(&dims, |i| ((i * 31 % 97) as f32 / 97.0) - 0.5);
    let mut session = network.session();
    let out = session.run(&input).unwrap().clone();
    (out, network.plan_summary().gemm_isa)
}

/// The fastest tier this host's CPU features allow, by the test's own
/// detection: AVX-512 needs AVX-512F on top of AVX2 and FMA.
fn best_host_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        if avx2 && is_x86_feature_detected!("avx512f") {
            return "avx512+fma";
        }
        if avx2 {
            return "avx2+fma";
        }
    }
    "scalar"
}

#[test]
fn forced_scalar_agrees_with_dispatched_simd_across_zoo() {
    for model in ZOO {
        let (scalar, scalar_isa) = run(model, true);
        let (dispatched, isa) = run(model, false);
        assert!(
            scalar_isa.starts_with("scalar"),
            "{model}: force_scalar engine reports ISA {scalar_isa:?}"
        );
        if orpheus_gemm::active_is_simd() {
            assert_eq!(
                isa,
                best_host_tier(),
                "{model}: default engine skipped the best SIMD tier"
            );
        }
        let r = orpheus_tensor::allclose(&dispatched, &scalar, 1e-4, 1e-5);
        assert!(r.ok, "{model}: SIMD output diverges from scalar: {r:?}");
    }
}

#[test]
fn force_scalar_pins_the_packed_scalar_tier() {
    // The knob must be visible in the plan: every GEMM-tier implementation
    // string names the pinned scalar kernel, and none names the
    // runtime-dispatched one.
    let hw = ModelKind::TinyCnn.min_input_hw();
    let network = Engine::builder()
        .force_scalar(true)
        .build()
        .unwrap()
        .load(build_model_with_input(ModelKind::TinyCnn, hw, hw))
        .unwrap();
    let summary = network.plan_summary();
    let packed: Vec<_> = summary
        .layers
        .iter()
        .filter(|l| l.implementation.contains("packed"))
        .collect();
    assert!(
        !packed.is_empty(),
        "TinyCnn lowers no packed-GEMM layers?\n{summary:?}"
    );
    for layer in packed {
        assert!(
            layer.implementation.contains("packed-scalar"),
            "{}: force_scalar left a dispatched tier: {}",
            layer.name,
            layer.implementation
        );
    }
}
