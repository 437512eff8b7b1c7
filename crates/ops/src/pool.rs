//! Spatial pooling operators.

use orpheus_tensor::{TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::conv::conv_out_dim;
use crate::error::{expect_dims, expect_rank, OpError};

/// Pooling reduction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolMode {
    /// Maximum over the window.
    Max,
    /// Average over the window. `count_include_pad` selects whether padded
    /// positions contribute to the divisor (ONNX default: they do not).
    Average {
        /// Whether the divisor counts out-of-image positions.
        count_include_pad: bool,
    },
}

/// Geometry of a 2-D pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool2dParams {
    /// Reduction mode.
    pub mode: PoolMode,
    /// Window height.
    pub kernel_h: usize,
    /// Window width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero padding top/bottom.
    pub pad_h: usize,
    /// Zero padding left/right.
    pub pad_w: usize,
}

impl Pool2dParams {
    /// Square max-pool with stride equal to the window (the common case).
    pub fn max(kernel: usize, stride: usize) -> Self {
        Pool2dParams {
            mode: PoolMode::Max,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: 0,
            pad_w: 0,
        }
    }

    /// Square average-pool (padding excluded from the divisor).
    pub fn average(kernel: usize, stride: usize) -> Self {
        Pool2dParams {
            mode: PoolMode::Average {
                count_include_pad: false,
            },
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: 0,
            pad_w: 0,
        }
    }

    /// Sets both paddings.
    pub fn with_padding(mut self, pad_h: usize, pad_w: usize) -> Self {
        self.pad_h = pad_h;
        self.pad_w = pad_w;
        self
    }

    /// Output height for input height `in_h`.
    pub fn out_h(&self, in_h: usize) -> usize {
        conv_out_dim(in_h, self.kernel_h, self.stride_h, self.pad_h, 1)
    }

    /// Output width for input width `in_w`.
    pub fn out_w(&self, in_w: usize) -> usize {
        conv_out_dim(in_w, self.kernel_w, self.stride_w, self.pad_w, 1)
    }
}

/// Runs 2-D pooling over an NCHW tensor into a preallocated output of the
/// pooled dims.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input is not rank 4 or `output` does
/// not have the pooled output dims, and [`OpError::InvalidParams`] for zero
/// extents.
pub fn pool2d_into(
    params: &Pool2dParams,
    input: TensorRef<'_>,
    mut output: TensorMut<'_>,
    pool: &ThreadPool,
) -> Result<(), OpError> {
    expect_rank(input.dims(), 4)?;
    if params.kernel_h == 0 || params.kernel_w == 0 || params.stride_h == 0 || params.stride_w == 0
    {
        return Err(OpError::InvalidParams(
            "pooling extents and strides must be positive".into(),
        ));
    }
    let [n, c, ih, iw] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let (oh, ow) = (params.out_h(ih), params.out_w(iw));
    expect_dims(output.dims(), &[n, c, oh, ow])?;
    let plane = oh * ow;
    let in_data = input.as_slice();
    let out_data = output.as_mut_slice();

    pool.parallel_for_rows(out_data, plane, 1, |plane0, chunk| {
        for (p_idx, out_plane) in chunk.chunks_mut(plane).enumerate() {
            let flat = plane0 + p_idx; // (img * c + channel)
            let in_plane = &in_data[flat * ih * iw..][..ih * iw];
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = (oy * params.stride_h) as isize - params.pad_h as isize;
                    let x0 = (ox * params.stride_w) as isize - params.pad_w as isize;
                    let mut acc = match params.mode {
                        PoolMode::Max => f32::NEG_INFINITY,
                        PoolMode::Average { .. } => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..params.kernel_h {
                        let iy = y0 + ky as isize;
                        if iy < 0 || iy >= ih as isize {
                            continue;
                        }
                        for kx in 0..params.kernel_w {
                            let ix = x0 + kx as isize;
                            if ix < 0 || ix >= iw as isize {
                                continue;
                            }
                            let v = in_plane[iy as usize * iw + ix as usize];
                            match params.mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Average { .. } => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out_plane[oy * ow + ox] = match params.mode {
                        PoolMode::Max => acc,
                        PoolMode::Average { count_include_pad } => {
                            let divisor = if count_include_pad {
                                params.kernel_h * params.kernel_w
                            } else {
                                count.max(1)
                            };
                            acc / divisor as f32
                        }
                    };
                }
            }
        }
    });
    Ok(())
}

/// Global average pooling: collapses each `[h, w]` plane to a single value,
/// writing into a preallocated `[n, c, 1, 1]` output.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input is not rank 4 or `output` does not
/// have dims `[n, c, 1, 1]`.
pub fn global_average_pool_into(
    input: TensorRef<'_>,
    mut output: TensorMut<'_>,
    _pool: &ThreadPool,
) -> Result<(), OpError> {
    expect_rank(input.dims(), 4)?;
    let [n, c, ih, iw] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    expect_dims(output.dims(), &[n, c, 1, 1])?;
    let plane = (ih * iw).max(1);
    let data = input.as_slice();
    for (i, out) in output.as_mut_slice().iter_mut().enumerate() {
        *out = data[i * plane..(i + 1) * plane].iter().sum::<f32>() / plane as f32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_op;
    use orpheus_tensor::Tensor;

    fn pool1() -> ThreadPool {
        ThreadPool::single()
    }

    /// Pools into an output of the pooled dims (`[0]` for a non-rank-4
    /// input, which `_into` then rejects).
    fn run_pool(
        params: &Pool2dParams,
        input: &Tensor,
        pool: &ThreadPool,
    ) -> Result<Tensor, OpError> {
        let dims = match *input.dims() {
            [n, c, h, w] => vec![n, c, params.out_h(h), params.out_w(w)],
            _ => vec![0],
        };
        run_op(&dims, |out| pool2d_into(params, input.view(), out, pool))
    }

    fn run_global(input: &Tensor) -> Result<Tensor, OpError> {
        let dims = match *input.dims() {
            [n, c, _, _] => vec![n, c, 1, 1],
            _ => vec![0],
        };
        run_op(&dims, |out| {
            global_average_pool_into(input.view(), out, &pool1())
        })
    }

    #[test]
    fn max_pool_2x2() {
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let out = run_pool(&Pool2dParams::max(2, 2), &input, &pool1()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_handles_negative_inputs() {
        let input = Tensor::full(&[1, 1, 2, 2], -3.0);
        let out = run_pool(&Pool2dParams::max(2, 2), &input, &pool1()).unwrap();
        assert_eq!(out.as_slice(), &[-3.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let input = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32);
        let out = run_pool(&Pool2dParams::average(2, 2), &input, &pool1()).unwrap();
        assert_eq!(out.as_slice(), &[1.5]);
    }

    #[test]
    fn avg_pool_excludes_padding_by_default() {
        // 2x2 ones, 3x3 window, pad 1: corner window sees 4 real pixels.
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let p = Pool2dParams::average(3, 1).with_padding(1, 1);
        let out = run_pool(&p, &input, &pool1()).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_include_pad_divides_by_window() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let mut p = Pool2dParams::average(3, 1).with_padding(1, 1);
        p.mode = PoolMode::Average {
            count_include_pad: true,
        };
        let out = run_pool(&p, &input, &pool1()).unwrap();
        // Corner window covers 4 ones out of 9 positions.
        assert!((out.as_slice()[0] - 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn max_pool_3x3_stride2_resnet_stem() {
        let p = Pool2dParams::max(3, 2).with_padding(1, 1);
        let input = Tensor::ones(&[1, 1, 112, 112]);
        let out = run_pool(&p, &input, &pool1()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 56, 56]);
    }

    #[test]
    fn global_average_pool_means_planes() {
        let input = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let out = run_global(&input).unwrap();
        assert_eq!(out.dims(), &[1, 2, 1, 1]);
        assert_eq!(out.as_slice(), &[1.5, 5.5]);
    }

    #[test]
    fn rejects_non_rank4() {
        assert!(run_pool(&Pool2dParams::max(2, 2), &Tensor::zeros(&[4]), &pool1()).is_err());
        assert!(run_global(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn rejects_zero_stride() {
        let mut p = Pool2dParams::max(2, 2);
        p.stride_h = 0;
        // The pooled dims are undefined at stride 0: any output is rejected.
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let err = run_op(&[1, 1, 2, 2], |out| {
            pool2d_into(&p, input.view(), out, &pool1())
        });
        assert!(matches!(err, Err(OpError::InvalidParams(_))));
    }

    #[test]
    fn multithreaded_matches_single() {
        let input = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i * 31) % 17) as f32);
        let p = Pool2dParams::max(3, 2).with_padding(1, 1);
        let a = run_pool(&p, &input, &pool1()).unwrap();
        let b = run_pool(&p, &input, &ThreadPool::new(4).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
