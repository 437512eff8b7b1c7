//! Dense row-major shapes and index arithmetic.

use std::fmt;

use crate::error::ShapeError;

/// The shape of a dense, row-major (C-order) tensor.
///
/// A `Shape` is an ordered list of dimension extents. Rank-0 shapes (scalars)
/// are permitted and have one element.
///
/// # Examples
///
/// ```
/// use orpheus_tensor::Shape;
///
/// let s = Shape::new(&[1, 3, 224, 224]);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.num_elements(), 3 * 224 * 224);
/// assert_eq!(s.strides(), vec![3 * 224 * 224, 224 * 224, 224, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Overwrites the extents with `dims`, the leading one replaced by
    /// `rows` (ignored for rank 0), reusing the storage.
    pub(crate) fn assign(&mut self, dims: &[usize], rows: usize) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        if let Some(lead) = self.dims.first_mut() {
            *lead = rows;
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    ///
    /// Saturates at `usize::MAX` instead of overflowing, so hostile shapes
    /// (e.g. from fuzzed model files) fail allocation checks rather than
    /// panicking on arithmetic.
    pub fn num_elements(&self) -> usize {
        self.dims
            .iter()
            .fold(1usize, |acc, &d| acc.saturating_mul(d))
    }

    /// Row-major strides, in elements.
    ///
    /// The last dimension is contiguous (stride 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::IndexOutOfBounds`] if the index has the wrong rank
    /// or any coordinate exceeds its extent.
    pub fn offset_of(&self, index: &[usize]) -> Result<usize, ShapeError> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(&i, &d)| i >= d) {
            return Err(ShapeError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut offset = 0;
        let mut stride = 1;
        for (i, d) in index.iter().zip(&self.dims).rev() {
            offset += i * stride;
            stride *= d;
        }
        Ok(offset)
    }

    /// Converts a flat offset back into a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::IndexOutOfBounds`] if `offset >= num_elements()`.
    pub fn index_of(&self, offset: usize) -> Result<Vec<usize>, ShapeError> {
        if offset >= self.num_elements() {
            return Err(ShapeError::IndexOutOfBounds {
                index: vec![offset],
                shape: self.dims.clone(),
            });
        }
        let mut remaining = offset;
        let mut index = vec![0usize; self.dims.len()];
        for (slot, &stride) in index.iter_mut().zip(self.strides().iter()) {
            *slot = remaining / stride;
            remaining %= stride;
        }
        Ok(index)
    }

    /// Whether this shape has the same number of elements as `other`
    /// (i.e. a reshape between them is valid).
    pub fn is_reshape_compatible(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_elements() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.offset_of(&[]).unwrap(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for flat in 0..24 {
            let idx = s.index_of(flat).unwrap();
            assert_eq!(s.offset_of(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_rejects_bad_rank() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset_of(&[1]).is_err());
        assert!(s.offset_of(&[1, 2, 0]).is_err());
    }

    #[test]
    fn offset_rejects_out_of_range() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset_of(&[2, 0]).is_err());
        assert!(s.offset_of(&[0, 3]).is_err());
    }

    #[test]
    fn index_of_rejects_out_of_range() {
        let s = Shape::new(&[2, 2]);
        assert!(s.index_of(4).is_err());
    }

    #[test]
    fn zero_extent_dimension() {
        let s = Shape::new(&[2, 0, 3]);
        assert_eq!(s.num_elements(), 0);
        assert!(s.index_of(0).is_err());
    }

    #[test]
    fn reshape_compat() {
        assert!(Shape::new(&[2, 6]).is_reshape_compatible(&Shape::new(&[3, 4])));
        assert!(!Shape::new(&[2, 6]).is_reshape_compatible(&Shape::new(&[5])));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[1, 3, 8, 8]).to_string(), "[1x3x8x8]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn from_array_and_vec() {
        let a: Shape = [2, 3].into();
        let v: Shape = vec![2, 3].into();
        assert_eq!(a, v);
    }
}

#[cfg(test)]
mod overflow_tests {
    use super::*;

    #[test]
    fn num_elements_saturates_instead_of_overflowing() {
        let s = Shape::new(&[usize::MAX, 3, 7]);
        assert_eq!(s.num_elements(), usize::MAX);
    }
}
