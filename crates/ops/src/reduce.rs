//! Axis reductions.
//!
//! Many training frameworks export global average pooling as
//! `ReduceMean(axes=[2,3])`; supporting the general reduction keeps such
//! models loadable without special-casing the exporter.

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Mean over the given axes.
///
/// With `keepdims`, reduced axes stay in the shape with extent 1 (ONNX's
/// default); otherwise they are removed (a full reduction then yields a
/// rank-0 scalar tensor).
///
/// # Errors
///
/// Returns [`OpError::InvalidParams`] for repeated or out-of-range axes.
pub fn reduce_mean(input: &Tensor, axes: &[usize], keepdims: bool) -> Result<Tensor, OpError> {
    let out_dims: Vec<usize> = reduced_dims(input.dims(), axes, keepdims).collect();
    let mut out = Tensor::zeros(&out_dims);
    reduce_mean_into(input, axes, keepdims, &mut out)?;
    Ok(out)
}

/// [`reduce_mean`] writing into a preallocated output tensor of the reduced
/// dims. Allocation-free.
///
/// # Errors
///
/// Returns [`OpError::InvalidParams`] for repeated or out-of-range axes, and
/// [`OpError::Shape`] for an empty input or an output dims mismatch.
pub fn reduce_mean_into(
    input: &Tensor,
    axes: &[usize],
    keepdims: bool,
    output: &mut Tensor,
) -> Result<(), OpError> {
    let in_dims = input.dims();
    let rank = in_dims.len();
    for (i, &a) in axes.iter().enumerate() {
        if a >= rank {
            return Err(OpError::InvalidParams(format!(
                "axis {a} out of range for rank {rank}"
            )));
        }
        if axes[..i].contains(&a) {
            return Err(OpError::InvalidParams(format!("axis {a} repeated")));
        }
    }
    if input.is_empty() {
        return Err(ShapeError::ElementCountMismatch {
            expected: 1,
            actual: 0,
        }
        .into());
    }
    if !output
        .dims()
        .iter()
        .copied()
        .eq(reduced_dims(in_dims, axes, keepdims))
    {
        return Err(ShapeError::Mismatch {
            left: output.dims().to_vec(),
            right: reduced_dims(in_dims, axes, keepdims).collect(),
        }
        .into());
    }
    let reduce_count: usize = axes.iter().map(|&a| in_dims[a]).product();
    let sums = output.as_mut_slice();
    sums.fill(0.0);
    // Walk every element once, scattering into its kept-coordinates bucket;
    // coordinates are peeled innermost first so the kept stride grows as
    // each kept dimension is consumed.
    for (flat, &x) in input.as_slice().iter().enumerate() {
        let mut rem = flat;
        let mut out_idx = 0usize;
        let mut kept_stride = 1usize;
        for d in (0..rank).rev() {
            if !axes.contains(&d) {
                out_idx += rem % in_dims[d] * kept_stride;
                kept_stride *= in_dims[d];
            }
            rem /= in_dims[d];
        }
        sums[out_idx] += x;
    }
    for s in sums {
        *s /= reduce_count as f32;
    }
    Ok(())
}

/// The output dims of a mean over `axes` (out-of-range axes never match; the
/// `_into` entry point rejects them).
fn reduced_dims<'a>(
    dims: &'a [usize],
    axes: &'a [usize],
    keepdims: bool,
) -> impl Iterator<Item = usize> + 'a {
    dims.iter()
        .enumerate()
        .filter(move |(d, _)| keepdims || !axes.contains(d))
        .map(|(d, &extent)| if axes.contains(&d) { 1 } else { extent })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_over_last_axis() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[2, 2]).unwrap();
        let out = reduce_mean(&t, &[1], false).unwrap();
        assert_eq!(out.dims(), &[2]);
        assert_eq!(out.as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn keepdims_preserves_rank() {
        let t = Tensor::ones(&[2, 3, 4]);
        let out = reduce_mean(&t, &[1], true).unwrap();
        assert_eq!(out.dims(), &[2, 1, 4]);
    }

    #[test]
    fn spatial_reduce_matches_global_average_pool() {
        use crate::pool::global_average_pool;
        use orpheus_threads::ThreadPool;
        let t = Tensor::from_fn(&[2, 3, 4, 4], |i| ((i * 31) % 17) as f32);
        let gap = global_average_pool(&t, &ThreadPool::single()).unwrap();
        let rm = reduce_mean(&t, &[2, 3], true).unwrap();
        assert_eq!(rm.dims(), &[2, 3, 1, 1]);
        for (a, b) in rm.as_slice().iter().zip(gap.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn full_reduction_yields_scalar() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3]).unwrap();
        let out = reduce_mean(&t, &[0], false).unwrap();
        assert_eq!(out.dims(), &[] as &[usize]);
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn empty_axes_is_identity_mean() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        let out = reduce_mean(&t, &[], false).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn into_rejects_mis_shaped_output_and_overwrites_stale_data() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        let mut wrong = Tensor::zeros(&[2]);
        assert!(reduce_mean_into(&t, &[1], true, &mut wrong).is_err());
        let mut out = Tensor::full(&[2, 1], 9.0);
        reduce_mean_into(&t, &[1], true, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn rejects_bad_axes() {
        let t = Tensor::ones(&[2, 2]);
        assert!(reduce_mean(&t, &[2], false).is_err());
        assert!(reduce_mean(&t, &[0, 0], false).is_err());
    }

    #[test]
    fn rejects_empty_tensor() {
        let t = Tensor::zeros(&[0, 3]);
        assert!(reduce_mean(&t, &[0], false).is_err());
    }
}
