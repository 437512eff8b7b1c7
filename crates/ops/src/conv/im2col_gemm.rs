//! GEMM convolution: `W(co x ci·kh·kw) · columns(input)`.
//!
//! This is the algorithm the paper credits for Orpheus's wins on the big
//! models ("Orpheus uses GEMM convolution, which pays off for big matrices").
//! There is one entry point, [`conv2d_im2col_into`]; what varies is how the
//! GEMM's right-hand operand reaches the kernel (`orpheus_gemm::PanelLayout`):
//!
//! * **row-major** — a pointwise (1x1, stride 1, unpadded) convolution's input
//!   planes already are the `k x n` operand;
//! * **virtual column** — the packed tiers' implicit GEMM: the pre-packed
//!   driver gathers each `KC x NR` micro-panel straight from the NCHW image,
//!   so no column matrix exists and the whole batch bucket rides one sweep of
//!   the packed weights;
//! * **materialised** — `im2col` into scratch, then row-major: always for the
//!   *eager* variant (`ConvAlgorithm::Im2colGemmEager`, the `pytorch-sim`
//!   personality's unfold-then-matmul), and for every non-pointwise geometry
//!   on the naive/blocked tiers, preserving the behaviour class they model.
//!
//! For grouped convolutions the lowering runs per group. For depthwise
//! convolutions (groups == channels) this degenerates into `channels`
//! tiny `1 x (kh*kw) x (oh*ow)` GEMMs — exactly the inefficiency the paper
//! observes in PyTorch's MobileNetV1 depthwise layers, which is why the
//! `pytorch-sim` personality routes depthwise convolutions through here.

use orpheus_gemm::{
    gemm_parallel, gemm_prepacked_a_images, im2col, GemmKernel, Im2colParams, PackedWeights,
    PanelLayout, PanelLoader,
};
use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use super::Conv2dParams;

/// Packs each group's `[cog x k]` weight matrix into GEMM micro-panels,
/// once, at layer-construction time. The steady-state run then loads only
/// the activation operand.
pub(crate) fn prepack_weights(params: &Conv2dParams, weight: &Tensor) -> Vec<PackedWeights> {
    let cog = params.out_channels / params.groups;
    let k = (params.in_channels / params.groups) * params.kernel_h * params.kernel_w;
    let w_data = weight.as_slice();
    (0..params.groups)
        .map(|g| PackedWeights::pack_a(&w_data[g * cog * k..(g + 1) * cog * k], cog, k, k))
        .collect()
}

/// Whether the column matrix is built in scratch before the GEMM: always for
/// the eager variant, and on the unpacked tiers for every geometry that
/// needs lowering at all.
fn materialises(params: &Conv2dParams, eager: bool, prepacked: bool) -> bool {
    eager || !(prepacked || params.is_pointwise())
}

/// GEMM convolution into a pre-sized output tensor.
///
/// `packed` holds the [`prepack_weights`] panels when `kernel` is a packed
/// tier; those run the pre-packed driver for every geometry (narrow outputs
/// become ragged register tiles), the other tiers multiply the raw `weight`.
/// `eager` models unfold-based frameworks that copy the column matrix
/// unconditionally.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_im2col_into(
    params: &Conv2dParams,
    input: &Tensor,
    weight: &Tensor,
    packed: Option<&[PackedWeights]>,
    output: &mut Tensor,
    kernel: GemmKernel,
    eager: bool,
    pool: &ThreadPool,
) {
    let [n, ci, ih, iw] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let (oh, ow) = (params.out_h(ih), params.out_w(iw));
    let co = params.out_channels;
    let cig = ci / params.groups;
    let cog = co / params.groups;
    let im2col_params = Im2colParams {
        channels: cig,
        height: ih,
        width: iw,
        kernel_h: params.kernel_h,
        kernel_w: params.kernel_w,
        stride_h: params.stride_h,
        stride_w: params.stride_w,
        pad_h: params.pad_h,
        pad_w: params.pad_w,
        dilation_h: params.dilation_h,
        dilation_w: params.dilation_w,
    };
    let k = im2col_params.matrix_rows(); // cig * kh * kw
    let cols = oh * ow;
    let materialise = materialises(params, eager, packed.is_some());
    let mut col_buf = orpheus_threads::take_scratch(if materialise { k * cols } else { 0 });
    let layout = if materialise {
        PanelLayout::Materialised { ldb: cols, n: cols }
    } else if params.is_pointwise() {
        PanelLayout::RowMajor { ldb: cols, n: cols }
    } else {
        PanelLayout::VirtualColumns(&im2col_params)
    };

    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let out_data = output.as_mut_slice();
    let in_image = ci * ih * iw;
    let out_image = co * oh * ow;
    // The materialised matrix holds one image, so that layout (and the
    // unpacked tiers, whose GEMM takes one operand) goes image by image;
    // otherwise the pre-packed driver takes the whole bucket at once.
    let images = if materialise || packed.is_none() {
        1
    } else {
        n
    };

    for g in 0..params.groups {
        for img in (0..n).step_by(images) {
            let in_group = &in_data[img * in_image + g * cig * ih * iw..];
            let out_group = &mut out_data[img * out_image + g * cog * cols..];
            let data: &[f32] = if materialise {
                im2col(&im2col_params, in_group, &mut col_buf);
                &col_buf
            } else {
                in_group
            };
            if let Some(packed) = packed {
                let loader = PanelLoader {
                    data,
                    image_stride: in_image,
                    layout,
                };
                gemm_prepacked_a_images(
                    kernel, pool, &packed[g], &loader, images, out_group, cols, out_image, 0.0,
                );
            } else {
                // Weight rows for this group form a contiguous [cog x k] matrix.
                let w_group = &w_data[g * cog * k..(g + 1) * cog * k];
                let out = &mut out_group[..cog * cols];
                gemm_parallel(
                    kernel, pool, cog, cols, k, w_group, k, data, cols, out, cols, 0.0,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{Conv2d, ConvAlgorithm};
    use orpheus_tensor::allclose;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15);
                ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect()
    }

    fn compare_to_direct(params: Conv2dParams, dims: [usize; 4], kernel: GemmKernel) {
        let input = Tensor::from_vec(pseudo(dims.iter().product(), 1), &dims).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 2), &wd).unwrap();
        let pool = ThreadPool::single();
        let direct = Conv2d::new(params, weight.clone(), None, ConvAlgorithm::Direct)
            .unwrap()
            .run(&input, &pool)
            .unwrap();
        let gemm = Conv2d::new(params, weight, None, ConvAlgorithm::Im2colGemm(kernel))
            .unwrap()
            .run(&input, &pool)
            .unwrap();
        let report = allclose(&gemm, &direct, 1e-4, 1e-5);
        assert!(report.ok, "mismatch: {report:?}");
    }

    #[test]
    fn matches_direct_basic_3x3() {
        compare_to_direct(
            Conv2dParams::square(3, 8, 3).with_padding(1, 1),
            [1, 3, 9, 9],
            GemmKernel::Packed,
        );
    }

    #[test]
    fn matches_direct_pointwise_fast_path() {
        // 1x1/s1/p0: the input planes are the row-major operand.
        compare_to_direct(
            Conv2dParams::square(16, 8, 1),
            [2, 16, 7, 7],
            GemmKernel::Packed,
        );
        compare_to_direct(
            Conv2dParams::square(3, 5, 1),
            [1, 3, 4, 4],
            GemmKernel::Naive,
        );
    }

    #[test]
    fn matches_direct_1x1_strided_not_pointwise() {
        // 1x1 with stride 2 must NOT take the row-major loader.
        compare_to_direct(
            Conv2dParams::square(4, 6, 1).with_stride(2, 2),
            [1, 4, 8, 8],
            GemmKernel::Packed,
        );
    }

    #[test]
    fn matches_direct_strided_7x7() {
        compare_to_direct(
            Conv2dParams::square(3, 4, 7)
                .with_stride(2, 2)
                .with_padding(3, 3),
            [1, 3, 17, 17],
            GemmKernel::Blocked,
        );
    }

    #[test]
    fn matches_direct_grouped() {
        compare_to_direct(
            Conv2dParams::square(4, 6, 3)
                .with_groups(2)
                .with_padding(1, 1),
            [2, 4, 6, 6],
            GemmKernel::Packed,
        );
    }

    #[test]
    fn matches_direct_depthwise() {
        compare_to_direct(
            Conv2dParams::depthwise(5, 3).with_padding(1, 1),
            [1, 5, 7, 7],
            GemmKernel::Naive,
        );
    }

    #[test]
    fn matches_direct_asymmetric_kernel() {
        let mut p = Conv2dParams::square(2, 3, 1);
        p.kernel_h = 1;
        p.kernel_w = 7;
        p.pad_w = 3;
        compare_to_direct(p, [1, 2, 5, 9], GemmKernel::Packed);
    }

    #[test]
    fn matches_direct_dilated() {
        compare_to_direct(
            Conv2dParams::square(2, 2, 3)
                .with_dilation(2, 2)
                .with_padding(2, 2),
            [1, 2, 8, 8],
            GemmKernel::Packed,
        );
    }

    /// The pre-packed driver walks the whole batch inside each KC block, yet
    /// must stay bit-identical across batch sizes: every output element
    /// accumulates the same KC blocks in the same order.
    #[test]
    fn prepacked_bit_identical_across_batch() {
        let params = Conv2dParams::square(3, 8, 3).with_padding(1, 1);
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 3), &wd).unwrap();
        let conv = Conv2d::new(
            params,
            weight,
            None,
            ConvAlgorithm::Im2colGemm(GemmKernel::Packed),
        )
        .unwrap();
        let pool = ThreadPool::single();
        let batch = Tensor::from_vec(pseudo(4 * 3 * 8 * 8, 5), &[4, 3, 8, 8]).unwrap();
        let batched = conv.run(&batch, &pool).unwrap();
        let image = batch.len() / 4;
        let out_image = batched.len() / 4;
        for img in 0..4 {
            let one = Tensor::from_vec(
                batch.as_slice()[img * image..(img + 1) * image].to_vec(),
                &[1, 3, 8, 8],
            )
            .unwrap();
            let single = conv.run(&one, &pool).unwrap();
            assert_eq!(
                single.as_slice(),
                &batched.as_slice()[img * out_image..(img + 1) * out_image],
                "image {img} differs from its batched run"
            );
        }
    }

    /// The virtual-column loader against both references, over the
    /// geometries with their own gather arithmetic (groups, dilation, strided
    /// 1x1, 1x7, stride 3) x batch {1,2,3} x threads {1,3}: within the
    /// documented 1e-5/1e-6 of `Direct`, and bit-for-bit equal to the eager
    /// variant, which multiplies the materialised column matrix through the
    /// same driver.
    #[test]
    fn virtual_loader_matches_direct_and_eager_bitwise() {
        let mut asymmetric = Conv2dParams::square(3, 5, 1).with_padding(0, 3);
        asymmetric.kernel_w = 7;
        let cases = [
            (
                Conv2dParams::square(6, 8, 3)
                    .with_groups(2)
                    .with_padding(1, 1),
                [9, 8],
            ),
            (
                Conv2dParams::square(3, 6, 3)
                    .with_dilation(2, 2)
                    .with_padding(2, 2),
                [10, 9],
            ),
            (Conv2dParams::square(5, 7, 1).with_stride(2, 2), [9, 9]),
            (asymmetric, [6, 11]),
            (
                Conv2dParams::square(4, 5, 5)
                    .with_stride(3, 3)
                    .with_padding(1, 1),
                [13, 12],
            ),
            (Conv2dParams::square(30, 9, 3).with_padding(1, 1), [4, 17]),
        ];
        for (params, [h, w]) in cases {
            assert!(!params.is_pointwise() && !materialises(&params, false, true));
            let wd = params.weight_dims();
            let weight = Tensor::from_vec(pseudo(wd.iter().product(), 11), &wd).unwrap();
            let bias = Tensor::from_vec(pseudo(params.out_channels, 12), &[wd[0]]).unwrap();
            let conv = |algorithm| {
                Conv2d::new(params, weight.clone(), Some(bias.clone()), algorithm).unwrap()
            };
            let direct = conv(ConvAlgorithm::Direct);
            for kernel in [GemmKernel::Packed, GemmKernel::PackedScalar] {
                let implicit = conv(ConvAlgorithm::Im2colGemm(kernel));
                let eager = conv(ConvAlgorithm::Im2colGemmEager(kernel));
                for batch in 1..=3 {
                    let dims = [batch, params.in_channels, h, w];
                    let input = Tensor::from_vec(pseudo(dims.iter().product(), 13), &dims).unwrap();
                    let want = direct.run(&input, &ThreadPool::single()).unwrap();
                    for threads in [1, 3] {
                        let pool = ThreadPool::new(threads).unwrap();
                        let got = implicit.run(&input, &pool).unwrap();
                        let report = allclose(&got, &want, 1e-5, 1e-6);
                        assert!(
                            report.ok,
                            "{params:?} batch {batch} threads {threads}: {report:?}"
                        );
                        let eager = eager.run(&input, &pool).unwrap();
                        assert_eq!(
                            got.as_slice(),
                            eager.as_slice(),
                            "{params:?} {kernel} batch {batch} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn materialises_for_eager_and_unpacked_tiers_only() {
        let pointwise = Conv2dParams::square(8, 8, 1);
        let spatial = Conv2dParams::square(8, 8, 3);
        // (eager, prepacked) -> builds the column matrix?
        for (params, eager, prepacked, want) in [
            (pointwise, false, true, false),
            (pointwise, false, false, false),
            (pointwise, true, true, true),
            (pointwise, true, false, true),
            (spatial, false, true, false),
            (spatial, false, false, true),
            (spatial, true, true, true),
        ] {
            assert_eq!(materialises(&params, eager, prepacked), want);
        }
        assert!(!pointwise.with_padding(1, 1).is_pointwise());
        assert!(!pointwise.with_stride(2, 2).is_pointwise());
    }
}
