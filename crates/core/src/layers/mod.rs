//! Concrete [`Layer`](crate::Layer) implementations.
//!
//! * [`native`] — layers built on the `orpheus-ops` algorithm library.
//! * [`third_party`] — layers that delegate to the simulated vendor
//!   backends, demonstrating the paper's third-party integration path.

pub mod native;
pub mod third_party;

pub use native::{ConvLayer, DenseLayer, Op, OpLayer};
pub use third_party::{VclConvLayer, VnnlConvLayer};
