//! Tensor substrate for the Orpheus inference framework.
//!
//! Orpheus is an inference-only framework, so this crate deliberately keeps the
//! tensor model small: dense, row-major (C-order), `f32` tensors with an
//! explicit [`Shape`], and borrowed [`TensorRef`] / [`TensorMut`] views that
//! let the same operator run over an owned tensor or a slice of an arena. Convolutional data uses the NCHW layout convention
//! throughout the workspace.
//!
//! # Examples
//!
//! ```
//! use orpheus_tensor::Tensor;
//!
//! let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! assert_eq!(t.at(&[1, 0]), 3.0);
//! let doubled = t.map(|x| x * 2.0);
//! assert_eq!(doubled.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
//! ```

#![forbid(unsafe_code)]

mod approx;
mod error;
mod init;
mod io;
pub mod rng;
mod shape;
mod tensor;
mod view;

pub use approx::{allclose, max_abs_diff, max_rel_diff, AllcloseReport};
pub use error::{ShapeError, TensorError};
pub use init::{fill_he_normal, fill_uniform, fill_xavier_uniform, Initializer};
pub use io::{read_tensor, write_tensor};
pub use rng::SmallRng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use view::{TensorMut, TensorRef};
