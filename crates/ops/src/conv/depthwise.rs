//! Specialized direct depthwise convolution.
//!
//! MobileNetV1 spends most of its non-pointwise time in depthwise layers.
//! The paper observes that PyTorch's depthwise implementation is inefficient
//! (it goes through the generic grouped-GEMM path — see
//! `im2col_gemm`), while an efficient framework uses a dedicated kernel like
//! this one: each channel is an independent 2-D convolution.
//!
//! *Pad once, then a border-free stencil.* Each `(image, channel)` plane is
//! copied into the interior of a zero-bordered scratch plane whose rows are
//! split into `stride_w` column phases — padded column `p` lives in phase
//! `p % stride_w` at index `p / stride_w` — so that for every stride and
//! dilation each kernel tap reads one contiguous run per output row. The
//! plane then goes to [`MicroKernel::stencil_plane`](orpheus_gemm::MicroKernel::stencil_plane),
//! which accumulates all taps in registers, seeds the accumulator with the
//! bias, clamps in-register and stores each output once.

use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use super::{Conv2dParams, DEPTHWISE_MAX_TAPS};
use crate::activation::Activation;

/// Depthwise direct convolution into a pre-sized output tensor, bias and
/// activation included (the caller must not apply them again).
///
/// Requires `params.is_depthwise()` and at most [`DEPTHWISE_MAX_TAPS`] kernel
/// taps. Parallelizes over `(image, channel)` planes, which are computed
/// independently of each other.
pub(crate) fn conv2d_depthwise_into(
    params: &Conv2dParams,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    activation: Option<Activation>,
    output: &mut Tensor,
    pool: &ThreadPool,
) {
    debug_assert!(params.is_depthwise());
    let (c, ih, iw) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let (oh, ow) = (params.out_h(ih), params.out_w(iw));
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let (sh, sw) = (params.stride_h, params.stride_w);
    let (dh, dw) = (params.dilation_h, params.dilation_w);
    let (ph, pw) = (params.pad_h, params.pad_w);

    // The padded plane covers the input plus its padding, and at least the
    // furthest tap of the last output (an input smaller than the kernel
    // still yields one output).
    let padded_h = (ih + 2 * ph).max((oh - 1) * sh + (kh - 1) * dh + 1);
    let padded_w = (iw + 2 * pw).max((ow - 1) * sw + (kw - 1) * dw + 1);
    let phase_len = padded_w.div_ceil(sw);
    let row_len = sw * phase_len;

    // Output `x` under tap `(ky, kx)` reads padded column `x*sw + kx*dw`:
    // phase `kx*dw % sw`, index `x + kx*dw / sw` — contiguous in `x`.
    let taps = kh * kw;
    assert!(
        taps <= DEPTHWISE_MAX_TAPS,
        "{kh}x{kw} depthwise kernel is past the tap cap ConvAlgorithm::supports states"
    );
    let mut offsets = [0usize; DEPTHWISE_MAX_TAPS];
    for (t, off) in offsets[..taps].iter_mut().enumerate() {
        let (ky, kx) = (t / kw, t % kw);
        *off = ky * dh * row_len + (kx * dw % sw) * phase_len + kx * dw / sw;
    }
    let offsets = &offsets[..taps];
    // Where input column 0 (padded column `pw`) lands.
    let (phase0, index0) = (pw % sw, pw / sw);

    // A clamping activation happens in the kernel's registers; any other
    // runs over the plane right after, while it is in L1.
    let clamp = activation.and_then(|a| a.as_clamp());
    let unfused = activation.filter(|_| clamp.is_none());
    let clamp = clamp.unwrap_or((f32::NEG_INFINITY, f32::INFINITY));
    let kernel = orpheus_gemm::active_kernel();
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let bias = bias.map(Tensor::as_slice);
    let plane = oh * ow;

    pool.parallel_for_rows(output.as_mut_slice(), plane, 1, |plane0, chunk| {
        // Zeroed once: every plane overwrites the same interior and none
        // touches the border.
        let mut padded = orpheus_threads::take_scratch(padded_h * row_len);
        for (p_idx, out_plane) in chunk.chunks_exact_mut(plane).enumerate() {
            let flat = plane0 + p_idx; // (img * c + channel)
            let ch = flat % c;
            let in_plane = &in_data[flat * ih * iw..][..ih * iw];
            let interior = padded[ph * row_len..].chunks_exact_mut(row_len);
            for (in_row, row) in in_plane.chunks_exact(iw.max(1)).zip(interior) {
                // One routine at every stride; naming MobileNet's two as
                // constants lets the compiler unroll the phase loop and
                // vectorize the strided gather (a plain copy at stride 1).
                match sw {
                    1 => split_phases(in_row, row, 1, phase_len, phase0, index0),
                    2 => split_phases(in_row, row, 2, phase_len, phase0, index0),
                    _ => split_phases(in_row, row, sw, phase_len, phase0, index0),
                }
            }
            kernel.stencil_plane(
                &padded,
                sh * row_len,
                offsets,
                &w_data[ch * taps..][..taps],
                bias.map_or(0.0, |b| b[ch]),
                clamp,
                out_plane,
                ow,
            );
            if let Some(act) = unfused {
                act.apply_slice(out_plane);
            }
        }
    });
}

/// Copies one input row into its padded row: input column `x` lands in
/// phase `(phase0 + x) % sw`, where input column 0 sits at `index0`.
#[inline(always)]
fn split_phases(
    in_row: &[f32],
    row: &mut [f32],
    sw: usize,
    phase_len: usize,
    phase0: usize,
    index0: usize,
) {
    // Input columns `x0, x0 + sw, ..` share a phase.
    let (mut phase, mut index) = (phase0, index0);
    for x0 in 0..sw.min(in_row.len()) {
        let dst = &mut row[phase * phase_len + index..];
        // Whole groups of `sw` columns first (a counted loop with a fixed
        // stride), then the one column a ragged last group may hold.
        let groups = in_row[x0..].chunks_exact(sw);
        let (full, last) = (groups.len(), groups.remainder().first());
        for (d, group) in dst.iter_mut().zip(groups) {
            *d = group[0];
        }
        if let Some(&v) = last {
            dst[full] = v;
        }
        phase += 1;
        if phase == sw {
            (phase, index) = (0, index + 1);
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
                let x = (i as u64 ^ seed).wrapping_mul(0xd1342543de82ef95);
                ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect()
    }

    fn tensors(params: &Conv2dParams, dims: [usize; 4]) -> (Tensor, Tensor, Tensor) {
        let input = Tensor::from_vec(pseudo(dims.iter().product(), 5), &dims).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 6), &wd).unwrap();
        let bias =
            Tensor::from_vec(pseudo(params.out_channels, 7), &[params.out_channels]).unwrap();
        (input, weight, bias)
    }

    fn compare_to_direct(params: Conv2dParams, dims: [usize; 4]) {
        compare_fused_to_direct(params, dims, None);
    }

    /// `Direct` applies bias and activation in `Conv2d::finish`; the
    /// depthwise kernel fuses both.
    fn compare_fused_to_direct(
        params: Conv2dParams,
        dims: [usize; 4],
        activation: Option<Activation>,
    ) {
        let (input, weight, bias) = tensors(&params, dims);
        let pool = ThreadPool::single();
        let run = |algo| {
            let mut conv = Conv2d::new(params, weight.clone(), Some(bias.clone()), algo).unwrap();
            if let Some(act) = activation {
                conv = conv.with_activation(act);
            }
            conv.run(&input, &pool).unwrap()
        };
        let want = run(ConvAlgorithm::Direct);
        let got = run(ConvAlgorithm::DepthwiseDirect);
        let r = allclose(&got, &want, 1e-4, 1e-5);
        assert!(r.ok, "depthwise mismatch for {params:?} on {dims:?}: {r:?}");
    }

    #[test]
    fn matches_direct_3x3_padded() {
        compare_to_direct(
            Conv2dParams::depthwise(6, 3).with_padding(1, 1),
            [1, 6, 8, 8],
        );
    }

    #[test]
    fn matches_direct_stride2() {
        // MobileNet's downsampling depthwise layers.
        compare_to_direct(
            Conv2dParams::depthwise(4, 3)
                .with_stride(2, 2)
                .with_padding(1, 1),
            [1, 4, 9, 9],
        );
    }

    #[test]
    fn matches_direct_no_padding() {
        compare_to_direct(Conv2dParams::depthwise(3, 3), [1, 3, 7, 7]);
    }

    #[test]
    fn matches_direct_5x5_kernel() {
        compare_to_direct(
            Conv2dParams::depthwise(2, 5).with_padding(2, 2),
            [1, 2, 9, 9],
        );
    }

    #[test]
    fn matches_direct_batched() {
        compare_to_direct(
            Conv2dParams::depthwise(5, 3).with_padding(1, 1),
            [3, 5, 6, 6],
        );
    }

    #[test]
    fn matches_direct_dilated() {
        compare_to_direct(
            Conv2dParams::depthwise(2, 3)
                .with_dilation(2, 2)
                .with_padding(2, 2),
            [1, 2, 8, 8],
        );
    }

    #[test]
    fn matches_direct_across_lane_boundaries() {
        // Output widths on both sides of the 8- and 16-lane vector edges, at
        // every phase count and with dilated taps that straddle phases.
        for ow in [1, 7, 8, 9, 15, 16, 17, 33] {
            for sw in 1..=3 {
                for dw in 1..=2 {
                    let params = Conv2dParams::depthwise(2, 3)
                        .with_stride(2, sw)
                        .with_dilation(1, dw)
                        .with_padding(1, 1);
                    let iw = (ow - 1) * sw + 2 * dw + 1 - 2;
                    assert_eq!(params.out_w(iw), ow);
                    compare_fused_to_direct(params, [1, 2, 5, iw], Some(Activation::Relu6));
                }
            }
        }
    }

    #[test]
    fn fuses_every_activation() {
        let params = Conv2dParams::depthwise(3, 3).with_padding(1, 1);
        for act in [
            Activation::Relu,
            Activation::Relu6,
            Activation::Clip { lo: -0.2, hi: 0.3 },
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::LeakyRelu { alpha: 0.1 },
        ] {
            compare_fused_to_direct(params, [2, 3, 6, 9], Some(act));
        }
    }

    #[test]
    fn matches_direct_when_padding_exceeds_the_kernel() {
        // Whole output rows and columns that see nothing but padding.
        let params = Conv2dParams {
            kernel_h: 1,
            ..Conv2dParams::depthwise(2, 3).with_padding(2, 3)
        };
        compare_fused_to_direct(params, [1, 2, 4, 5], None);
    }

    #[test]
    fn matches_direct_when_the_input_is_smaller_than_the_kernel() {
        // `conv_out_dim` still yields one output; its taps past the input
        // read zeros.
        compare_fused_to_direct(Conv2dParams::depthwise(2, 5), [1, 2, 3, 2], None);
    }

    #[test]
    fn batched_output_is_bit_identical_to_per_image_runs() {
        let params = Conv2dParams::depthwise(4, 3)
            .with_stride(2, 2)
            .with_padding(1, 1);
        let (input, weight, bias) = tensors(&params, [3, 4, 9, 11]);
        let conv = Conv2d::new(params, weight, Some(bias), ConvAlgorithm::DepthwiseDirect)
            .unwrap()
            .with_activation(Activation::Relu);
        let pool = ThreadPool::single();
        let batched = conv.run(&input, &pool).unwrap();
        let image_len = input.len() / 3;
        let out_len = batched.len() / 3;
        for img in 0..3 {
            let one = Tensor::from_vec(
                input.as_slice()[img * image_len..][..image_len].to_vec(),
                &[1, 4, 9, 11],
            )
            .unwrap();
            let got = conv.run(&one, &pool).unwrap();
            assert_eq!(
                got.as_slice(),
                &batched.as_slice()[img * out_len..][..out_len]
            );
        }
    }

    #[test]
    fn multithreaded_matches_single() {
        let params = Conv2dParams::depthwise(8, 3).with_padding(1, 1);
        let input = Tensor::from_vec(pseudo(2 * 8 * 6 * 6, 11), &[2, 8, 6, 6]).unwrap();
        let weight = Tensor::from_vec(pseudo(8 * 9, 12), &[8, 1, 3, 3]).unwrap();
        let conv = Conv2d::new(params, weight, None, ConvAlgorithm::DepthwiseDirect).unwrap();
        let a = conv.run(&input, &ThreadPool::single()).unwrap();
        let b = conv.run(&input, &ThreadPool::new(3).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
