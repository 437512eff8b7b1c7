//! TVM-style "spatial pack" direct convolution.
//!
//! The paper attributes TVM's wins on the small models (WRN-40-2,
//! MobileNetV1) to this primitive, so the `tvm-sim` personality runs on this
//! module. The algorithm avoids the im2col materialization entirely:
//!
//! 1. weights are re-packed **once, at layer construction** into
//!    `[co_tile][ci][ky][kx][VC]` order so the inner loop reads `VC` output
//!    channels contiguously (TVM performs this at compile time);
//! 2. the input is zero-padded into a contiguous buffer so the hot loop has
//!    no bounds checks;
//! 3. compute proceeds over register tiles of `VC` output channels × `VW`
//!    output pixels, accumulating in locals the compiler keeps in vector
//!    registers.
//!
//! Because there is no column-matrix copy, the working set stays small —
//! which is exactly why it beats GEMM convolution on small layers and loses
//! on big ones (the crossover the paper's Figure 2 shows).
//!
//! Parallelism note: spatial pack splits work across the *batch* dimension;
//! the paper's headline measurement is batch 1 on a single thread, where this
//! choice is irrelevant.

use orpheus_tensor::{Tensor, TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use super::{Conv2dParams, ConvKernel, Epilogue};

/// Output channels per register tile (one 8-wide f32 vector).
const VC: usize = 8;
/// Output pixels per register tile.
const VW: usize = 8;

/// Dense (one-group) geometry only: depthwise and grouped convolutions go to
/// the dedicated depthwise kernel or grouped GEMM.
pub(super) fn supports(params: &Conv2dParams) -> bool {
    params.groups == 1
}

/// Spatial pack's prepared state: the weights re-packed for its kernel.
#[derive(Debug)]
pub(super) struct SpatialPack {
    /// `[co_tile][ci][ky][kx][VC]`, ragged last tile zero-padded.
    data: Vec<f32>,
    co_tiles: usize,
}

/// Packs `[co, ci, kh, kw]` weights into spatial-pack order.
pub(super) fn pack_weights(params: &Conv2dParams, weight: &Tensor) -> SpatialPack {
    let co = params.out_channels;
    let ci = params.in_channels; // groups == 1 here
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let co_tiles = co.div_ceil(VC);
    let mut data = vec![0.0f32; co_tiles * ci * kh * kw * VC];
    let w = weight.as_slice();
    for oc in 0..co {
        let (tile, lane) = (oc / VC, oc % VC);
        for ic in 0..ci {
            for ky in 0..kh {
                for kx in 0..kw {
                    let src = ((oc * ci + ic) * kh + ky) * kw + kx;
                    let dst = ((((tile * ci) + ic) * kh + ky) * kw + kx) * VC + lane;
                    data[dst] = w[src];
                }
            }
        }
    }
    SpatialPack { data, co_tiles }
}

impl ConvKernel for SpatialPack {
    fn run_into(
        &self,
        params: &Conv2dParams,
        _: &Tensor,
        input: TensorRef<'_>,
        mut output: TensorMut<'_>,
        _: &Epilogue,
        pool: &ThreadPool,
    ) {
        let [_n, ci, ih, iw]: [usize; 4] = input.dims().try_into().expect("rank checked by Conv2d");
        let out_image = params.out_channels * params.out_h(ih) * params.out_w(iw);
        let in_data = input.as_slice();

        // Split across the batch: each worker owns whole output images.
        pool.parallel_for_rows(output.as_mut_slice(), out_image, 1, |img0, images| {
            // Per-worker padded input buffer, reused across its images.
            let (ph, pw) = (ih + 2 * params.pad_h, iw + 2 * params.pad_w);
            let mut padded = orpheus_threads::take_scratch(ci * ph * pw);
            for (i, out_image) in images.chunks_mut(out_image).enumerate() {
                let image = &in_data[(img0 + i) * ci * ih * iw..][..ci * ih * iw];
                pad_image(params, image, &mut padded, [ci, ih, iw]);
                compute_image(self, params, &padded, [ci, ih, iw], out_image);
            }
        });
    }
}

/// Copies one CHW image into the zero-padded buffer.
fn pad_image(params: &Conv2dParams, src: &[f32], dst: &mut [f32], [ci, ih, iw]: [usize; 3]) {
    let (pad_h, pad_w) = (params.pad_h, params.pad_w);
    let (ph, pw) = (ih + 2 * pad_h, iw + 2 * pad_w);
    if pad_h == 0 && pad_w == 0 {
        dst.copy_from_slice(src);
        return;
    }
    dst.fill(0.0);
    for c in 0..ci {
        for y in 0..ih {
            let s = &src[(c * ih + y) * iw..][..iw];
            let d = &mut dst[(c * ph + y + pad_h) * pw + pad_w..][..iw];
            d.copy_from_slice(s);
        }
    }
}

/// The register-tiled compute kernel for one image.
///
/// The accumulator tile is written exactly once, after the full
/// input-channel reduction — this keeps it in vector registers (LLVM's
/// scalar replacement gives up as soon as the tile is conditionally reloaded
/// from memory, which costs ~4x; measured while calibrating this kernel).
// Index loops keep the tile scatter's access order explicit for codegen.
#[allow(clippy::needless_range_loop)]
fn compute_image(
    packed: &SpatialPack,
    params: &Conv2dParams,
    padded: &[f32],
    [ci, ih, iw]: [usize; 3],
    out_image: &mut [f32],
) {
    let (ph, pw) = (ih + 2 * params.pad_h, iw + 2 * params.pad_w);
    let (oh, ow, co) = (params.out_h(ih), params.out_w(iw), params.out_channels);
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let (sh, sw) = (params.stride_h, params.stride_w);
    let (dh, dw) = (params.dilation_h, params.dilation_w);
    let plane = oh * ow;
    // The padded buffer must cover the furthest tap the loops will read.
    debug_assert!(ph > (oh - 1) * sh + (kh - 1) * dh);
    debug_assert!(pw > (ow - 1) * sw + (kw - 1) * dw);

    for tile in 0..packed.co_tiles {
        let w_tile = &packed.data[tile * ci * kh * kw * VC..][..ci * kh * kw * VC];
        let vc_valid = VC.min(co - tile * VC);
        for oy in 0..oh {
            let iy_base = oy * sh;
            let mut ox0 = 0;
            while ox0 < ow {
                let tw = VW.min(ow - ox0);
                let mut acc = [[0.0f32; VC]; VW];
                for ic in 0..ci {
                    let in_plane = &padded[ic * ph * pw..][..ph * pw];
                    let w_ci = &w_tile[ic * kh * kw * VC..][..kh * kw * VC];
                    for ky in 0..kh {
                        let in_row = &in_plane[(iy_base + ky * dh) * pw..][..pw];
                        let w_ky = &w_ci[ky * kw * VC..][..kw * VC];
                        for kx in 0..kw {
                            let wv: &[f32; VC] =
                                w_ky[kx * VC..(kx + 1) * VC].try_into().expect("VC lane");
                            let x_base = ox0 * sw + kx * dw;
                            if tw == VW {
                                for (u, a) in acc.iter_mut().enumerate() {
                                    let xv = in_row[x_base + u * sw];
                                    for v in 0..VC {
                                        a[v] += xv * wv[v];
                                    }
                                }
                            } else {
                                for (u, a) in acc.iter_mut().take(tw).enumerate() {
                                    let xv = in_row[x_base + u * sw];
                                    for v in 0..VC {
                                        a[v] += xv * wv[v];
                                    }
                                }
                            }
                        }
                    }
                }
                // Scatter the tile back to planar NCHW output.
                for v in 0..vc_valid {
                    let oc = tile * VC + v;
                    let out_row = &mut out_image[oc * plane + oy * ow..][..ow];
                    for u in 0..tw {
                        out_row[ox0 + u] = acc[u][v];
                    }
                }
                ox0 += tw;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{run_conv, Conv2d, ConvAlgorithm};
    use orpheus_tensor::allclose;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64 ^ seed).wrapping_mul(0x2545f4914f6cdd1d);
                ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect()
    }

    fn compare_to_direct(params: Conv2dParams, dims: [usize; 4]) {
        let input = Tensor::from_vec(pseudo(dims.iter().product(), 3), &dims).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 4), &wd).unwrap();
        let pool = ThreadPool::single();
        let want = run_conv(
            &Conv2d::new(params, weight.clone(), None, ConvAlgorithm::Direct).unwrap(),
            &input,
            &pool,
        )
        .unwrap();
        let got = run_conv(
            &Conv2d::new(params, weight, None, ConvAlgorithm::SpatialPack).unwrap(),
            &input,
            &pool,
        )
        .unwrap();
        let r = allclose(&got, &want, 1e-4, 1e-5);
        assert!(r.ok, "spatial-pack mismatch: {r:?}");
    }

    #[test]
    fn matches_direct_3x3_padded() {
        compare_to_direct(
            Conv2dParams::square(3, 16, 3).with_padding(1, 1),
            [1, 3, 8, 8],
        );
    }

    #[test]
    fn matches_direct_ragged_channels_and_width() {
        // co=11 (ragged VC tile), ow=13 (ragged VW tile).
        compare_to_direct(
            Conv2dParams::square(2, 11, 3).with_padding(1, 1),
            [1, 2, 13, 13],
        );
    }

    #[test]
    fn matches_direct_1x1() {
        compare_to_direct(Conv2dParams::square(8, 8, 1), [1, 8, 6, 6]);
    }

    #[test]
    fn matches_direct_strided() {
        compare_to_direct(
            Conv2dParams::square(3, 8, 3)
                .with_stride(2, 2)
                .with_padding(1, 1),
            [1, 3, 9, 9],
        );
    }

    #[test]
    fn matches_direct_7x7_stride2() {
        compare_to_direct(
            Conv2dParams::square(3, 10, 7)
                .with_stride(2, 2)
                .with_padding(3, 3),
            [1, 3, 15, 15],
        );
    }

    #[test]
    fn matches_direct_batched() {
        compare_to_direct(
            Conv2dParams::square(2, 9, 3).with_padding(1, 1),
            [3, 2, 5, 5],
        );
    }

    #[test]
    fn matches_direct_asymmetric() {
        let mut p = Conv2dParams::square(2, 5, 1);
        p.kernel_h = 7;
        p.kernel_w = 1;
        p.pad_h = 3;
        compare_to_direct(p, [1, 2, 9, 5]);
    }

    #[test]
    fn multithreaded_matches_single_on_batch() {
        let params = Conv2dParams::square(3, 8, 3).with_padding(1, 1);
        let input = Tensor::from_vec(pseudo(4 * 3 * 6 * 6, 9), &[4, 3, 6, 6]).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 10), &wd).unwrap();
        let conv = Conv2d::new(params, weight, None, ConvAlgorithm::SpatialPack).unwrap();
        let a = run_conv(&conv, &input, &ThreadPool::single()).unwrap();
        let b = run_conv(&conv, &input, &ThreadPool::new(4).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn packed_weights_layout() {
        let p = Conv2dParams::square(1, 2, 1);
        let w = Tensor::from_vec(vec![3.0, 5.0], &[2, 1, 1, 1]).unwrap();
        let packed = pack_weights(&p, &w);
        assert_eq!(packed.co_tiles, 1);
        assert_eq!(&packed.data[0..2], &[3.0, 5.0]);
        assert!(
            packed.data[2..].iter().all(|&x| x == 0.0),
            "ragged lanes zero"
        );
    }
}
