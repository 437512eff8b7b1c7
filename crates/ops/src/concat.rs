//! Channel concatenation (Inception branch joins).

use orpheus_tensor::{ShapeError, TensorMut, TensorRef};

use crate::error::{expect_dims, expect_rank, OpError};

/// Concatenates NCHW tensors along the channel axis into a preallocated
/// output.
///
/// All inputs must share batch and spatial dims. This is the join at the end
/// of every Inception module.
///
/// # Errors
///
/// Returns [`OpError::InvalidParams`] for an empty input list and
/// [`OpError::Shape`] for rank or dimension mismatches, or if `output` does
/// not have the concatenated dims.
pub fn concat_channels_into(
    inputs: &[TensorRef<'_>],
    mut output: TensorMut<'_>,
) -> Result<(), OpError> {
    let (n, total_c, h, w) = concat_dims(inputs)?;
    expect_dims(output.dims(), &[n, total_c, h, w])?;
    let plane = h * w;
    let out_data = output.as_mut_slice();
    for img in 0..n {
        let mut c_off = 0;
        for t in inputs {
            let c = t.dims()[1];
            let src = &t.as_slice()[img * c * plane..(img + 1) * c * plane];
            let dst = &mut out_data[(img * total_c + c_off) * plane..][..c * plane];
            dst.copy_from_slice(src);
            c_off += c;
        }
    }
    Ok(())
}

/// Validates the concat inputs and returns the `[n, total_c, h, w]` dims.
fn concat_dims(inputs: &[TensorRef<'_>]) -> Result<(usize, usize, usize, usize), OpError> {
    let first = inputs
        .first()
        .ok_or_else(|| OpError::InvalidParams("concat needs at least one input".into()))?;
    expect_rank(first.dims(), 4)?;
    let [n, _, h, w] = [
        first.dims()[0],
        first.dims()[1],
        first.dims()[2],
        first.dims()[3],
    ];
    let mut total_c = 0;
    for t in inputs {
        let d = t.dims();
        if d.len() != 4 || d[0] != n || d[2] != h || d[3] != w {
            return Err(ShapeError::Mismatch {
                left: d.to_vec(),
                right: first.dims().to_vec(),
            }
            .into());
        }
        total_c += d[1];
    }
    Ok((n, total_c, h, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_op;
    use orpheus_tensor::Tensor;

    /// Concatenates into an output of the concatenated dims (a placeholder
    /// when the inputs have none, so `_into` itself rejects them).
    fn run_concat(inputs: &[&Tensor]) -> Result<Tensor, OpError> {
        let views: Vec<TensorRef<'_>> = inputs.iter().map(|t| t.view()).collect();
        let dims = concat_dims(&views).map_or(vec![0], |(n, c, h, w)| vec![n, c, h, w]);
        run_op(&dims, |out| concat_channels_into(&views, out))
    }

    #[test]
    fn concat_two_tensors() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let out = run_concat(&[&a, &b]).unwrap();
        assert_eq!(out.dims(), &[1, 3, 2, 2]);
        assert_eq!(out.plane(0, 0).unwrap(), &[1.0; 4]);
        assert_eq!(out.plane(0, 1).unwrap(), &[2.0; 4]);
        assert_eq!(out.plane(0, 2).unwrap(), &[2.0; 4]);
    }

    #[test]
    fn single_input_is_identity() {
        let a = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        assert_eq!(run_concat(&[&a]).unwrap(), a);
    }

    #[test]
    fn batched_interleaving_is_per_image() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1, 1]).unwrap();
        let out = run_concat(&[&a, &b]).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn rejects_spatial_mismatch() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(run_concat(&[&a, &b]).is_err());
    }

    #[test]
    fn rejects_batch_mismatch() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[2, 1, 2, 2]);
        assert!(run_concat(&[&a, &b]).is_err());
    }

    #[test]
    fn rejects_empty_and_low_rank() {
        assert!(run_concat(&[]).is_err());
        let a = Tensor::zeros(&[4]);
        assert!(run_concat(&[&a]).is_err());
    }

    #[test]
    fn into_rejects_mis_sized_output() {
        let a = Tensor::ones(&[1, 1, 2, 2]);
        assert!(run_op(&[1, 2, 2, 2], |out| concat_channels_into(&[a.view()], out)).is_err());
    }

    #[test]
    fn four_way_inception_join() {
        let parts: Vec<Tensor> = [3usize, 5, 7, 2]
            .iter()
            .map(|&c| Tensor::full(&[1, c, 4, 4], c as f32))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let out = run_concat(&refs).unwrap();
        assert_eq!(out.dims(), &[1, 17, 4, 4]);
        assert_eq!(out.plane(0, 3).unwrap(), &[5.0; 16]);
        assert_eq!(out.plane(0, 16).unwrap(), &[2.0; 16]);
    }
}
