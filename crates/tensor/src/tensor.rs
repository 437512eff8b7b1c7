//! The dense `f32` tensor type.

use std::fmt;

use crate::error::ShapeError;
use crate::shape::Shape;
use crate::view::{TensorMut, TensorRef};

/// A dense, row-major `f32` tensor.
///
/// Convolutional data in Orpheus uses the NCHW layout: dimension 0 is the
/// batch, 1 the channel, 2 the height and 3 the width. The tensor itself is
/// layout-agnostic; NCHW is a convention enforced by the operators.
///
/// # Examples
///
/// ```
/// use orpheus_tensor::Tensor;
///
/// let t = Tensor::zeros(&[1, 3, 2, 2]);
/// assert_eq!(t.len(), 12);
/// assert_eq!(t.shape().dims(), &[1, 3, 2, 2]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.num_elements()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.num_elements()];
        Tensor { shape, data }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(ShapeError::ElementCountMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.num_elements()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Shorthand for `shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying storage, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// A read-only view of the whole tensor.
    pub fn view(&self) -> TensorRef<'_> {
        TensorRef::new(&self.data, self.shape.dims()).expect("a tensor's data matches its shape")
    }

    /// A writable view of the whole tensor.
    pub fn view_mut(&mut self) -> TensorMut<'_> {
        TensorMut::new(&mut self.data, self.shape.dims())
            .expect("a tensor's data matches its shape")
    }

    /// Overwrites this tensor with a copy of `src` cut to its first `rows`
    /// entries along dim 0 (all of a rank-0 `src`), reusing this tensor's
    /// storage: once it has held a value that large and of that rank, the
    /// copy allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds `src`'s leading dim.
    pub fn copy_rows_from(&mut self, src: TensorRef<'_>, rows: usize) {
        let keep = match src.dims().first() {
            Some(&lead) => {
                assert!(rows <= lead, "cannot copy {rows} rows of {lead}");
                src.len().checked_div(lead).unwrap_or(0) * rows
            }
            None => src.len(),
        };
        self.shape.assign(src.dims(), rows);
        self.data.clear();
        self.data.extend_from_slice(&src.as_slice()[..keep]);
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Tensor::get`] for a
    /// fallible variant.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self
            .shape
            .offset_of(index)
            .unwrap_or_else(|e| panic!("{e}"));
        self.data[off]
    }

    /// Reads the element at a multi-dimensional index, if in bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.offset_of(index).ok().map(|off| self.data[off])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self
            .shape
            .offset_of(index)
            .unwrap_or_else(|e| panic!("{e}"));
        self.data[off] = value;
    }

    /// Returns a new tensor with the same data and a different shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountMismatch`] if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Tensor, ShapeError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Reshapes in place (no data movement).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ElementCountMismatch`] if the element counts differ.
    pub fn reshape(&mut self, dims: &[usize]) -> Result<(), ShapeError> {
        let new_shape = Shape::new(dims);
        if new_shape.num_elements() != self.data.len() {
            return Err(ShapeError::ElementCountMismatch {
                expected: new_shape.num_elements(),
                actual: self.data.len(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Largest element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Smallest element, or `None` for an empty tensor.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Index of the largest element (first occurrence), or `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            match best {
                Some((_, bx)) if bx >= x => {}
                _ => best = Some((i, x)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Borrows one image plane `[h, w]` of an NCHW tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::RankMismatch`] if the tensor is not rank 4, or
    /// [`ShapeError::IndexOutOfBounds`] if `n`/`c` exceed their extents.
    pub fn plane(&self, n: usize, c: usize) -> Result<&[f32], ShapeError> {
        let dims = self.shape.dims();
        if dims.len() != 4 {
            return Err(ShapeError::RankMismatch {
                expected: 4,
                actual: dims.len(),
            });
        }
        if n >= dims[0] || c >= dims[1] {
            return Err(ShapeError::IndexOutOfBounds {
                index: vec![n, c],
                shape: dims.to_vec(),
            });
        }
        let plane = dims[2] * dims[3];
        let start = (n * dims[1] + c) * plane;
        Ok(&self.data[start..start + plane])
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::new(&[0]),
            data: Vec::new(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<f32> = self.data.iter().copied().take(PREVIEW).collect();
        if self.data.len() > PREVIEW {
            write!(f, "{preview:?}…")
        } else {
            write!(f, "{preview:?}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::zeros(&[2, 3]);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[2, 3]);
        assert_eq!(o.sum(), 6.0);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.get(&[1, 2, 3]), Some(7.5));
        assert_eq!(t.get(&[2, 0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    fn from_fn_generates_flat_indices() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.at(&[1, 1]), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshaped(&[3, 4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshaped(&[5]).is_err());
    }

    #[test]
    fn map() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(a.map(|x| -x).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -1.0, 4.0, 1.0], &[4]).unwrap();
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.max(), Some(4.0));
        assert_eq!(t.min(), Some(-1.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(Tensor::default().argmax(), None);
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0], &[3]).unwrap();
        assert_eq!(t.argmax(), Some(1));
    }

    #[test]
    fn plane_extracts_hw() {
        let t = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let p = t.plane(1, 2).unwrap();
        assert_eq!(p, &[20.0, 21.0, 22.0, 23.0]);
        assert!(t.plane(2, 0).is_err());
        assert!(Tensor::zeros(&[2, 2]).plane(0, 0).is_err());
    }

    #[test]
    fn norm_of_3_4() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Tensor::default());
        assert!(!s.is_empty());
        let big = format!("{:?}", Tensor::zeros(&[100]));
        assert!(big.contains('…'));
    }

    #[test]
    fn copy_rows_from_keeps_the_leading_rows() {
        let src = Tensor::from_fn(&[3, 2], |i| i as f32);
        let mut out = Tensor::default();
        out.copy_rows_from(src.view(), 2);
        assert_eq!(out.dims(), &[2, 2]);
        assert_eq!(out.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        out.copy_rows_from(Tensor::scalar(7.0).view(), 0);
        assert_eq!((out.dims(), out.as_slice()), (&[][..], &[7.0][..]));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
