//! The paper's central correctness requirement: every convolution algorithm
//! must produce the same answer, so implementations can be swapped at runtime
//! without changing results. These property tests sample random geometries
//! and verify all applicable algorithms against the direct reference.

use orpheus_gemm::GemmKernel;
use orpheus_ops::activation::Activation;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_tensor::{allclose, Tensor};
use orpheus_threads::ThreadPool;
use proptest::prelude::*;

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15);
            ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
        })
        .collect()
}

fn run(params: Conv2dParams, dims: &[usize; 4], algo: ConvAlgorithm, seed: u64) -> Tensor {
    let input = Tensor::from_vec(pseudo(dims.iter().product(), seed), dims).unwrap();
    let wd = params.weight_dims();
    let weight = Tensor::from_vec(pseudo(wd.iter().product(), seed ^ 0xff), &wd).unwrap();
    Conv2d::new(params, weight, None, algo)
        .unwrap()
        .run(&input, &ThreadPool::single())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Standard convolutions: direct, im2col+GEMM (all tiers) and
    /// spatial-pack agree on arbitrary geometry.
    #[test]
    fn standard_conv_algorithms_agree(
        ci in 1usize..5, co in 1usize..12,
        k in 1usize..4, s in 1usize..3, pad in 0usize..2,
        h in 4usize..11, w in 4usize..11,
        n in 1usize..3, seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let params = Conv2dParams::square(ci, co, k)
            .with_stride(s, s)
            .with_padding(pad, pad);
        let dims = [n, ci, h, w];
        let reference = run(params, &dims, ConvAlgorithm::Direct, seed);
        for algo in [
            ConvAlgorithm::Im2colGemm(GemmKernel::Naive),
            ConvAlgorithm::Im2colGemm(GemmKernel::Blocked),
            ConvAlgorithm::Im2colGemm(GemmKernel::Packed),
            ConvAlgorithm::Im2colGemmEager(GemmKernel::Blocked),
            ConvAlgorithm::SpatialPack,
        ] {
            let got = run(params, &dims, algo, seed);
            let r = allclose(&got, &reference, 1e-3, 1e-4);
            prop_assert!(r.ok, "{algo} disagrees with direct: {r:?}");
        }
    }

    /// Winograd agrees with direct on its supported geometry
    /// (3x3, stride 1, any padding).
    #[test]
    fn winograd_agrees(
        ci in 1usize..5, co in 1usize..9, pad in 0usize..2,
        h in 3usize..12, w in 3usize..12, seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let params = Conv2dParams::square(ci, co, 3).with_padding(pad, pad);
        let dims = [1, ci, h, w];
        let reference = run(params, &dims, ConvAlgorithm::Direct, seed);
        let got = run(params, &dims, ConvAlgorithm::Winograd, seed);
        let r = allclose(&got, &reference, 2e-3, 2e-4);
        prop_assert!(r.ok, "winograd disagrees: {r:?}");
    }

    /// Linearity: conv(a*x) == a*conv(x) for every algorithm.
    #[test]
    fn conv_is_linear(scale in -3.0f32..3.0, seed in any::<u64>()) {
        let params = Conv2dParams::square(2, 4, 3).with_padding(1, 1);
        let dims = [1, 2, 6, 6];
        let input = Tensor::from_vec(pseudo(72, seed), &dims).unwrap();
        let weight = Tensor::from_vec(pseudo(params.weight_dims().iter().product(), seed ^ 1),
                                      &params.weight_dims()).unwrap();
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::default(), ConvAlgorithm::SpatialPack] {
            let conv = Conv2d::new(params, weight.clone(), None, algo).unwrap();
            let y = conv.run(&input, &ThreadPool::single()).unwrap();
            let y_scaled = conv.run(&input.map(|x| x * scale), &ThreadPool::single()).unwrap();
            let want = y.map(|v| v * scale);
            let r = allclose(&y_scaled, &want, 1e-3, 1e-3);
            prop_assert!(r.ok, "{algo} not linear: {r:?}");
        }
    }
}

/// Depthwise kernel shapes: the square ones, a row, a column, and 5x5.
const DEPTHWISE_KERNELS: [(usize, usize); 6] = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (5, 5)];
/// Output widths on both sides of the 8- and 16-lane vector boundaries.
const DEPTHWISE_OUT_WIDTHS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 33];
/// No activation, then every variant.
const FUSED_ACTIVATIONS: [Option<Activation>; 7] = [
    None,
    Some(Activation::Relu),
    Some(Activation::Relu6),
    Some(Activation::Clip { lo: -0.25, hi: 0.5 }),
    Some(Activation::Sigmoid),
    Some(Activation::Tanh),
    Some(Activation::LeakyRelu { alpha: 0.1 }),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Depthwise geometry: the dedicated kernel (also reached through
    /// spatial-pack) and the grouped-GEMM path (the "PyTorch way"), each with
    /// bias and activation fused, agree with direct convolution followed by
    /// a separate bias add and activation — over non-square inputs, strides
    /// and dilations that differ per axis, padding up to and past the
    /// kernel extent, and a batch of two.
    #[test]
    fn depthwise_algorithms_agree(
        c in 2usize..7, kernel in 0usize..DEPTHWISE_KERNELS.len(),
        sh in 1usize..4, sw in 1usize..4, dh in 1usize..3, dw in 1usize..3,
        ph in 0usize..3, pw in 0usize..3,
        oh in 1usize..6, ow in 0usize..DEPTHWISE_OUT_WIDTHS.len(),
        // Input rows/columns past the last tap, which the stride skips.
        slack_h in 0usize..3, slack_w in 0usize..3,
        activation in 0usize..FUSED_ACTIVATIONS.len(), seed in any::<u64>(),
    ) {
        let (kh, kw) = DEPTHWISE_KERNELS[kernel];
        let ow = DEPTHWISE_OUT_WIDTHS[ow];
        let activation = FUSED_ACTIVATIONS[activation];
        let params = Conv2dParams {
            kernel_h: kh,
            kernel_w: kw,
            ..Conv2dParams::depthwise(c, 1)
                .with_stride(sh, sw)
                .with_dilation(dh, dw)
                .with_padding(ph, pw)
        };
        // The smallest input with this output extent, plus the slack.
        let padded_h = (oh - 1) * sh + (kh - 1) * dh + 1 + slack_h % sh;
        let padded_w = (ow - 1) * sw + (kw - 1) * dw + 1 + slack_w % sw;
        prop_assume!(padded_h > 2 * ph && padded_w > 2 * pw);
        let dims = [2, c, padded_h - 2 * ph, padded_w - 2 * pw];
        prop_assert_eq!((params.out_h(dims[2]), params.out_w(dims[3])), (oh, ow));

        let input = Tensor::from_vec(pseudo(dims.iter().product(), seed), &dims).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), seed ^ 0xff), &wd).unwrap();
        let bias = Tensor::from_vec(pseudo(c, seed ^ 0xb1a5), &[c]).unwrap();
        let pool = ThreadPool::single();

        let mut reference = Conv2d::new(params, weight.clone(), None, ConvAlgorithm::Direct)
            .unwrap()
            .run(&input, &pool)
            .unwrap();
        for (p, plane) in reference.as_mut_slice().chunks_exact_mut(oh * ow).enumerate() {
            for x in plane.iter_mut() {
                *x += bias.as_slice()[p % c];
            }
            if let Some(act) = activation {
                act.apply_slice(plane);
            }
        }

        for algo in [
            ConvAlgorithm::DepthwiseDirect,
            ConvAlgorithm::Im2colGemm(GemmKernel::Packed),
            ConvAlgorithm::SpatialPack,
        ] {
            let mut conv = Conv2d::new(params, weight.clone(), Some(bias.clone()), algo).unwrap();
            if let Some(act) = activation {
                conv = conv.with_activation(act);
            }
            let got = conv.run(&input, &pool).unwrap();
            let r = allclose(&got, &reference, 1e-3, 1e-4);
            prop_assert!(r.ok, "{algo} depthwise disagrees for {params:?} on {dims:?}: {r:?}");
        }
    }
}
