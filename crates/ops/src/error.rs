//! Operator error type.

use std::error::Error;
use std::fmt;

use orpheus_tensor::ShapeError;

/// Error raised when constructing or running an operator.
#[derive(Debug)]
pub enum OpError {
    /// Parameters are internally inconsistent (e.g. channels not divisible by
    /// groups).
    InvalidParams(String),
    /// A tensor passed to the operator has the wrong shape.
    Shape(ShapeError),
    /// The selected algorithm does not support this configuration (e.g.
    /// spatial pack on a depthwise convolution).
    Unsupported(String),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::InvalidParams(msg) => write!(f, "invalid operator parameters: {msg}"),
            OpError::Shape(e) => write!(f, "{e}"),
            OpError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl Error for OpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OpError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for OpError {
    fn from(e: ShapeError) -> Self {
        OpError::Shape(e)
    }
}

/// `Ok` when `got` equals `want`, else the [`ShapeError::Mismatch`] naming
/// both (`got` on the left).
pub(crate) fn expect_dims(got: &[usize], want: &[usize]) -> Result<(), OpError> {
    if got != want {
        return Err(ShapeError::Mismatch {
            left: got.to_vec(),
            right: want.to_vec(),
        }
        .into());
    }
    Ok(())
}

/// `Ok` when `dims` has rank `rank`, else the [`ShapeError::RankMismatch`].
pub(crate) fn expect_rank(dims: &[usize], rank: usize) -> Result<(), OpError> {
    if dims.len() != rank {
        return Err(ShapeError::RankMismatch {
            expected: rank,
            actual: dims.len(),
        }
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(OpError::InvalidParams("x".into()).to_string().contains("x"));
        assert!(OpError::Unsupported("spatial-pack".into())
            .to_string()
            .contains("spatial-pack"));
    }

    #[test]
    fn shape_error_converts() {
        let e: OpError = ShapeError::RankMismatch {
            expected: 4,
            actual: 2,
        }
        .into();
        assert!(matches!(e, OpError::Shape(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OpError>();
    }
}
