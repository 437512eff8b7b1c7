//! Runtime implementation selection.
//!
//! "In Orpheus, layers are treated as first class citizens, and have
//! multiple implementations which are selected at runtime." This module is
//! the selector. Three policies are provided, forming the
//! `selection_policy` ablation axis:
//!
//! * [`SelectionPolicy::Fixed`] — one algorithm for every convolution (what
//!   each framework personality pins);
//! * [`SelectionPolicy::Heuristic`] — the paper's "GEMM pays off for big
//!   matrices" observation checked by measurement on this reproduction's
//!   kernels: GEMM for every dense geometry, a dedicated kernel for
//!   depthwise;
//! * [`SelectionPolicy::AutoTune`] — measure each candidate on the layer's
//!   real shape and keep the fastest (TVM's approach, in miniature).

use std::time::Instant;

use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

/// How the engine chooses a convolution implementation per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Always use this algorithm (layers it cannot run fall back: depthwise
    /// ones to `DepthwiseDirect`, the rest — and depthwise kernels past
    /// `DEPTHWISE_MAX_TAPS` — to im2col-GEMM).
    Fixed(ConvAlgorithm),
    /// Choose by layer geometry.
    #[default]
    Heuristic,
    /// Benchmark each candidate on the layer's real shape; keep the fastest.
    AutoTune {
        /// Timed trials per candidate (after one warm-up run).
        trials: usize,
    },
}

impl SelectionPolicy {
    /// Selects an algorithm for a convolution of `params` on an input of
    /// spatial size `(h, w)`.
    pub fn select(
        &self,
        params: &Conv2dParams,
        h: usize,
        w: usize,
        pool: &ThreadPool,
    ) -> ConvAlgorithm {
        let chosen = match *self {
            SelectionPolicy::Fixed(algo) => algo,
            SelectionPolicy::Heuristic => heuristic(params),
            SelectionPolicy::AutoTune { trials } => auto_tune(params, h, w, pool, trials.max(1)),
        };
        supported_or_fallback(chosen, params)
    }
}

/// Guarantees applicability regardless of policy: `chosen` if it can run
/// `params`, else the dedicated depthwise kernel if that can, else
/// im2col-GEMM, which runs everything.
pub(crate) fn supported_or_fallback(chosen: ConvAlgorithm, params: &Conv2dParams) -> ConvAlgorithm {
    [chosen, ConvAlgorithm::DepthwiseDirect]
        .into_iter()
        .find(|algo| algo.supports(params))
        .unwrap_or_default()
}

/// Geometry rule calibrated against the `orpheus-cli sweep` measurements on
/// this reproduction's kernels (see EXPERIMENTS.md).
///
/// The sweep finds no reduction depth `K = ci·kh·kw` below which spatial
/// packing beats implicit-GEMM convolution: packed GEMM wins from `K = 27`
/// up at every feature-map size of 16x16 and above, by 1.7–4x, and spatial
/// packing's only wins are sub-microsecond ones on 8x8 maps with `K <= 36`.
/// So the paper's "GEMM pays off for big matrices" holds for every dense
/// geometry here, and only depthwise keeps its own kernel.
fn heuristic(params: &Conv2dParams) -> ConvAlgorithm {
    supported_or_fallback(ConvAlgorithm::DepthwiseDirect, params)
}

/// Candidate set for auto-tuning a given geometry: packed GEMM, plus the
/// dedicated kernel where the layer is depthwise, so a dense convolution
/// has nothing to choose between. The pinned-scalar GEMM tier and spatial
/// pack are left out: on WRN-40-2 and MobileNetV1 neither wins a layer with
/// its own kernel. Both stay reachable through [`SelectionPolicy::Fixed`].
pub(crate) fn candidates(params: &Conv2dParams) -> Vec<ConvAlgorithm> {
    [ConvAlgorithm::default(), ConvAlgorithm::DepthwiseDirect]
        .into_iter()
        .filter(|a| a.supports(params))
        .collect()
}

/// Times each candidate's `run_into` on a synthetic input of the layer's
/// real shape; the output is allocated once, outside the clock. A lone
/// candidate (every dense convolution) wins untimed and unbuilt.
fn auto_tune(
    params: &Conv2dParams,
    h: usize,
    w: usize,
    pool: &ThreadPool,
    trials: usize,
) -> ConvAlgorithm {
    let candidates = candidates(params);
    if let [only] = candidates[..] {
        return only;
    }
    let input = Tensor::full(&[1, params.in_channels, h, w], 0.5);
    let wd = params.weight_dims();
    let weight = Tensor::full(&wd, 0.01);
    let mut output = Tensor::zeros(&[1, params.out_channels, params.out_h(h), params.out_w(w)]);
    let mut best: Option<(ConvAlgorithm, f64)> = None;
    for algo in candidates {
        let mut candidate_span = if orpheus_observe::enabled() {
            let mut s = orpheus_observe::span(format!("autotune:{algo}"), "selection");
            s.attr("trials", trials);
            s
        } else {
            orpheus_observe::span("", "selection")
        };
        let Ok(conv) = Conv2d::new(*params, weight.clone(), None, algo) else {
            orpheus_observe::counter_add("selection.candidate_error", 1);
            continue;
        };
        // Warm-up (also allocates scratch paths).
        if conv.run_into(&input, &mut output, pool).is_err() {
            orpheus_observe::counter_add("selection.candidate_error", 1);
            continue;
        }
        let start = Instant::now();
        for _ in 0..trials {
            let _ = conv.run_into(&input, &mut output, pool);
        }
        let elapsed = start.elapsed().as_secs_f64() / trials as f64;
        candidate_span.attr("mean_us", elapsed * 1e6);
        if best.map(|(_, t)| elapsed < t).unwrap_or(true) {
            best = Some((algo, elapsed));
        }
    }
    best.map(|(a, _)| a).unwrap_or_else(|| {
        // Every candidate failed to build or run: degrade to the reference
        // implementation rather than guessing an optimized path that may be
        // equally broken.
        orpheus_observe::counter_add("selection.fallback", 1);
        ConvAlgorithm::Direct
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_gemm::GemmKernel;
    use orpheus_ops::conv::DEPTHWISE_MAX_TAPS;

    #[test]
    fn fixed_policy_respects_choice() {
        let p = Conv2dParams::square(16, 16, 3).with_padding(1, 1);
        let algo = SelectionPolicy::Fixed(ConvAlgorithm::SpatialPack).select(
            &p,
            32,
            32,
            &ThreadPool::single(),
        );
        assert_eq!(algo, ConvAlgorithm::SpatialPack);
    }

    #[test]
    fn fixed_policy_falls_back_for_depthwise() {
        // Spatial pack cannot run depthwise; policy must substitute.
        let p = Conv2dParams::depthwise(16, 3).with_padding(1, 1);
        let algo = SelectionPolicy::Fixed(ConvAlgorithm::SpatialPack).select(
            &p,
            32,
            32,
            &ThreadPool::single(),
        );
        assert_eq!(algo, ConvAlgorithm::DepthwiseDirect);
    }

    #[test]
    fn heuristic_keeps_gemm_at_every_reduction_depth() {
        // Shallow (RGB stem, k = 147; 16-channel 3x3, k = 144), deep
        // (64-channel 3x3, k = 576) and pointwise alike: the sweep finds no
        // depth below which spatial packing beats the implicit-GEMM path.
        let stem = Conv2dParams::square(3, 64, 7)
            .with_stride(2, 2)
            .with_padding(3, 3);
        let thin = Conv2dParams::square(16, 16, 3).with_padding(1, 1);
        let deep = Conv2dParams::square(64, 64, 3).with_padding(1, 1);
        let pointwise = Conv2dParams::square(512, 512, 1);
        for (params, hw) in [(stem, 224), (thin, 32), (deep, 56), (pointwise, 28)] {
            assert_eq!(
                SelectionPolicy::Heuristic.select(&params, hw, hw, &ThreadPool::single()),
                ConvAlgorithm::Im2colGemm(GemmKernel::Packed)
            );
        }
    }

    #[test]
    fn heuristic_uses_depthwise_kernel() {
        let dw = Conv2dParams::depthwise(512, 3).with_padding(1, 1);
        assert_eq!(
            SelectionPolicy::Heuristic.select(&dw, 14, 14, &ThreadPool::single()),
            ConvAlgorithm::DepthwiseDirect
        );
    }

    #[test]
    fn depthwise_past_the_tap_cap_falls_back_to_gemm() {
        // 7x7 = 49 taps is the dedicated kernel's cap; 7x8 is past it and
        // must land on im2col-GEMM whatever the policy asked for.
        let at_cap = Conv2dParams::depthwise(8, 7);
        let past_cap = Conv2dParams {
            kernel_w: 8,
            ..at_cap
        };
        assert_eq!(at_cap.kernel_h * at_cap.kernel_w, DEPTHWISE_MAX_TAPS);
        let pool = ThreadPool::single();
        assert_eq!(
            SelectionPolicy::Heuristic.select(&at_cap, 16, 16, &pool),
            ConvAlgorithm::DepthwiseDirect
        );
        for policy in [
            SelectionPolicy::Heuristic,
            SelectionPolicy::Fixed(ConvAlgorithm::DepthwiseDirect),
            SelectionPolicy::Fixed(ConvAlgorithm::SpatialPack),
        ] {
            assert_eq!(
                policy.select(&past_cap, 16, 16, &pool),
                ConvAlgorithm::Im2colGemm(GemmKernel::Packed),
                "{policy:?}"
            );
        }
        assert!(!candidates(&past_cap).contains(&ConvAlgorithm::DepthwiseDirect));
    }

    #[test]
    fn candidate_sets_respect_support() {
        let dw = Conv2dParams::depthwise(8, 3);
        let c = candidates(&dw);
        assert!(c.contains(&ConvAlgorithm::DepthwiseDirect));
        assert!(!c.contains(&ConvAlgorithm::SpatialPack));
        let dense = Conv2dParams::square(8, 8, 3).with_padding(1, 1);
        assert_eq!(candidates(&dense), [ConvAlgorithm::default()]);
    }

    #[test]
    fn auto_tune_returns_supported_algorithm() {
        let p = Conv2dParams::square(4, 8, 3).with_padding(1, 1);
        let algo = SelectionPolicy::AutoTune { trials: 1 }.select(&p, 8, 8, &ThreadPool::single());
        assert!(algo.supports(&p));
    }
}
