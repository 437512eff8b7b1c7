//! Borrowed tensor views: a slice plus its dims, owning nothing, so the same
//! operator runs over an owned [`Tensor`] or over a slice of an arena.

use crate::error::ShapeError;
use crate::tensor::Tensor;

/// Checks that `len` elements fill `dims` (1 for a rank-0 scalar).
fn check_len(len: usize, dims: &[usize]) -> Result<(), ShapeError> {
    let expected = dims.iter().fold(1usize, |acc, &d| acc.saturating_mul(d));
    if len != expected {
        return Err(ShapeError::ElementCountMismatch {
            expected,
            actual: len,
        });
    }
    Ok(())
}

/// A read-only, dense, row-major view of `f32` data with explicit dims.
///
/// # Examples
///
/// ```
/// use orpheus_tensor::{Tensor, TensorRef};
///
/// let t = Tensor::ones(&[2, 3]);
/// let row = TensorRef::new(&t.as_slice()[..3], &[1, 3]).unwrap();
/// assert_eq!((row.dims(), row.len()), (&[1, 3][..], 3));
/// assert_eq!(t.view().len(), 6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TensorRef<'a> {
    data: &'a [f32],
    dims: &'a [usize],
}

impl<'a> TensorRef<'a> {
    /// Views `data` as a value of `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `dims`.
    pub fn new(data: &'a [f32], dims: &'a [usize]) -> Result<Self, ShapeError> {
        check_len(data.len(), dims)?;
        Ok(TensorRef { data, dims })
    }

    /// The view's dims.
    pub fn dims(&self) -> &'a [usize] {
        self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The viewed data, row-major.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }
}

/// A writable, dense, row-major view of `f32` data with explicit dims.
#[derive(Debug)]
pub struct TensorMut<'a> {
    data: &'a mut [f32],
    dims: &'a [usize],
}

impl<'a> TensorMut<'a> {
    /// Views `data` as a writable value of `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `dims`.
    pub fn new(data: &'a mut [f32], dims: &'a [usize]) -> Result<Self, ShapeError> {
        check_len(data.len(), dims)?;
        Ok(TensorMut { data, dims })
    }

    /// The view's dims.
    pub fn dims(&self) -> &'a [usize] {
        self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The viewed data, row-major.
    pub fn as_slice(&self) -> &[f32] {
        self.data
    }

    /// The viewed data, row-major and writable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// A shorter-lived view of the same data, to hand to a callee and keep
    /// using this one afterwards.
    pub fn reborrow(&mut self) -> TensorMut<'_> {
        TensorMut {
            data: self.data,
            dims: self.dims,
        }
    }
}

impl<'a> From<&'a Tensor> for TensorRef<'a> {
    fn from(tensor: &'a Tensor) -> Self {
        tensor.view()
    }
}

impl<'a> From<&'a mut Tensor> for TensorMut<'a> {
    fn from(tensor: &'a mut Tensor) -> Self {
        tensor.view_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_the_element_count() {
        let mut data = [0.0f32; 6];
        assert!(TensorRef::new(&data, &[2, 3]).is_ok());
        assert!(TensorRef::new(&data, &[4]).is_err());
        assert!(TensorMut::new(&mut data, &[7]).is_err());
        // A rank-0 scalar holds one element.
        assert!(TensorRef::new(&data[..1], &[]).is_ok());
    }

    #[test]
    fn views_of_a_tensor_share_its_storage() {
        let mut t = Tensor::zeros(&[2, 2]);
        let mut out: TensorMut<'_> = (&mut t).into();
        out.reborrow().as_mut_slice()[3] = 5.0;
        assert_eq!(out.dims(), &[2, 2]);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 0.0, 5.0]);
        let read: TensorRef<'_> = (&t).into();
        assert_eq!(read.as_slice()[3], 5.0);
        assert_eq!(t.at(&[1, 1]), 5.0);
    }
}
