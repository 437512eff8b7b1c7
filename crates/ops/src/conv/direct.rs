//! Naive direct convolution — the reference implementation.
//!
//! Seven nested loops with no data reorganization. Every other algorithm in
//! this crate is validated against this one, and the `darknet-sim` framework
//! personality runs on it (the paper reports DarkNet inference "measured in
//! seconds"; this is why).

use orpheus_tensor::{Tensor, TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use super::{Conv2dParams, ConvKernel, Epilogue};

/// Direct convolution: runs every geometry and reads the layer's weights as
/// they stand, so it prepares nothing.
#[derive(Debug)]
pub(super) struct Direct;

impl ConvKernel for Direct {
    /// Parallelizes over `(image, output-channel)` planes; each plane is an
    /// independent unit of work.
    fn run_into(
        &self,
        params: &Conv2dParams,
        weight: &Tensor,
        input: TensorRef<'_>,
        mut output: TensorMut<'_>,
        _: &Epilogue,
        pool: &ThreadPool,
    ) {
        let [n, ci, ih, iw]: [usize; 4] = input.dims().try_into().expect("rank checked by Conv2d");
        let (oh, ow) = (params.out_h(ih), params.out_w(iw));
        let co = params.out_channels;
        let cig = ci / params.groups; // input channels per group
        let cog = co / params.groups; // output channels per group
        let (kh, kw) = (params.kernel_h, params.kernel_w);
        let in_data = input.as_slice();
        let w_data = weight.as_slice();
        let plane = oh * ow;

        let out_data = output.as_mut_slice();
        // One "row" per (n, co) output plane.
        pool.parallel_for_rows(out_data, plane, 1, |plane0, chunk| {
            for (p_idx, out_plane) in chunk.chunks_mut(plane).enumerate() {
                let flat = plane0 + p_idx;
                let (img, oc) = (flat / co, flat % co);
                let g = oc / cog;
                debug_assert!(img < n);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..cig {
                            let in_plane = &in_data[(img * ci + g * cig + ic) * ih * iw..];
                            let w_base = ((oc * cig) + ic) * kh * kw;
                            for ky in 0..kh {
                                let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                                    - params.pad_h as isize;
                                if iy < 0 || iy >= ih as isize {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * params.stride_w + kx * params.dilation_w)
                                        as isize
                                        - params.pad_w as isize;
                                    if ix < 0 || ix >= iw as isize {
                                        continue;
                                    }
                                    acc += w_data[w_base + ky * kw + kx]
                                        * in_plane[iy as usize * iw + ix as usize];
                                }
                            }
                        }
                        out_plane[oy * ow + ox] = acc;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{run_conv, Conv2d, ConvAlgorithm};

    fn run_direct(params: Conv2dParams, input: &Tensor, weight: Tensor) -> Tensor {
        run_conv(
            &Conv2d::new(params, weight, None, ConvAlgorithm::Direct).unwrap(),
            input,
            &ThreadPool::single(),
        )
        .unwrap()
    }

    #[test]
    fn identity_1x1_kernel() {
        let p = Conv2dParams::square(1, 1, 1);
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = run_direct(p, &input, weight);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_3x3_counts_neighbours() {
        // All-ones input and kernel with padding 1: each output is the count
        // of in-bounds neighbours (4 at corners, 6 at edges, 9 inside).
        let p = Conv2dParams::square(1, 1, 3).with_padding(1, 1);
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = run_direct(p, &input, weight);
        assert_eq!(
            out.as_slice(),
            &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]
        );
    }

    #[test]
    fn channels_sum() {
        // Two input channels, weights all one: output = sum over channels.
        let p = Conv2dParams::square(2, 1, 1);
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let weight = Tensor::ones(&[1, 2, 1, 1]);
        let out = run_direct(p, &input, weight);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn stride_two_subsamples() {
        let p = Conv2dParams::square(1, 1, 1).with_stride(2, 2);
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = run_direct(p, &input, weight);
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn grouped_conv_keeps_groups_separate() {
        // groups=2: each output channel sees only its group's input channel.
        let p = Conv2dParams::square(2, 2, 1).with_groups(2);
        let input =
            Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0], &[1, 2, 2, 2]).unwrap();
        let weight = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]).unwrap();
        let out = run_direct(p, &input, weight);
        assert_eq!(out.plane(0, 0).unwrap(), &[2.0; 4]);
        assert_eq!(out.plane(0, 1).unwrap(), &[15.0; 4]);
    }

    #[test]
    fn batch_dimension_independent() {
        let p = Conv2dParams::square(1, 1, 1);
        let input = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]).unwrap();
        let weight = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let out = run_direct(p, &input, weight);
        assert_eq!(out.as_slice(), &[10.0, 20.0]);
    }

    #[test]
    fn multithreaded_matches_single() {
        let p = Conv2dParams::square(3, 4, 3).with_padding(1, 1);
        let input = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 17) as f32 * 0.25);
        let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| (i % 5) as f32 - 2.0);
        let conv = Conv2d::new(p, weight, None, ConvAlgorithm::Direct).unwrap();
        let a = run_conv(&conv, &input, &ThreadPool::single()).unwrap();
        let b = run_conv(&conv, &input, &ThreadPool::new(4).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
