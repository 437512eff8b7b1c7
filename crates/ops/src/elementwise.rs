//! Element-wise binary operators (residual connections and friends).

use orpheus_tensor::{TensorMut, TensorRef};

use crate::activation::Activation;
use crate::error::{expect_dims, OpError};

/// Which element-wise binary operation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b` — residual additions in ResNet/WRN.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
}

/// Applies a binary operation over two same-shaped tensors, writing into
/// a preallocated output of the inputs' dims.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input or output shapes differ.
pub fn binary_into(
    op: BinaryOp,
    a: TensorRef<'_>,
    b: TensorRef<'_>,
    mut output: TensorMut<'_>,
) -> Result<(), OpError> {
    expect_dims(a.dims(), b.dims())?;
    expect_dims(output.dims(), a.dims())?;
    let f = match op {
        BinaryOp::Add => |x: f32, y: f32| x + y,
        BinaryOp::Sub => |x: f32, y: f32| x - y,
        BinaryOp::Mul => |x: f32, y: f32| x * y,
    };
    for ((o, &x), &y) in output
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
    Ok(())
}

/// Fused `activation(a + b)` — the shape of every ResNet block join —
/// written into a preallocated output in one pass.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input or output shapes differ.
pub fn add_activate_into(
    a: TensorRef<'_>,
    b: TensorRef<'_>,
    act: Activation,
    mut output: TensorMut<'_>,
) -> Result<(), OpError> {
    expect_dims(a.dims(), b.dims())?;
    expect_dims(output.dims(), a.dims())?;
    for ((o, &x), &y) in output
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = act.apply(x + y);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_op;
    use orpheus_tensor::Tensor;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    fn run_binary(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        run_op(a.dims(), |out| binary_into(op, a.view(), b.view(), out))
    }

    fn run_add_activate(a: &Tensor, b: &Tensor, act: Activation) -> Result<Tensor, OpError> {
        run_op(a.dims(), |out| {
            add_activate_into(a.view(), b.view(), act, out)
        })
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[10.0, -1.0]);
        assert_eq!(
            run_binary(BinaryOp::Add, &a, &b).unwrap().as_slice(),
            &[11.0, 1.0]
        );
        assert_eq!(
            run_binary(BinaryOp::Sub, &a, &b).unwrap().as_slice(),
            &[-9.0, 3.0]
        );
        assert_eq!(
            run_binary(BinaryOp::Mul, &a, &b).unwrap().as_slice(),
            &[10.0, -2.0]
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (two, three) = (Tensor::zeros(&[2]), Tensor::zeros(&[3]));
        assert!(run_binary(BinaryOp::Add, &two, &three).is_err());
        assert!(run_add_activate(&two, &three, Activation::Relu).is_err());
        // A mis-shaped output is rejected too, not silently truncated.
        assert!(run_op(&[3], |out| binary_into(
            BinaryOp::Add,
            two.view(),
            two.view(),
            out
        ))
        .is_err());
        assert!(run_op(&[3], |out| {
            add_activate_into(two.view(), two.view(), Activation::Relu, out)
        })
        .is_err());
    }

    #[test]
    fn fused_add_relu_matches_unfused() {
        let a = t(&[1.0, -5.0, 2.0]);
        let b = t(&[1.0, 2.0, -9.0]);
        let fused = run_add_activate(&a, &b, Activation::Relu).unwrap();
        let sum = run_binary(BinaryOp::Add, &a, &b).unwrap();
        let unfused = run_op(sum.dims(), |out| Activation::Relu.run_into(sum.view(), out)).unwrap();
        assert_eq!(fused, unfused);
        assert_eq!(fused.as_slice(), &[2.0, 0.0, 0.0]);
    }

    #[test]
    fn add_commutes() {
        let a = t(&[1.5, 2.5]);
        let b = t(&[0.5, -2.5]);
        assert_eq!(
            run_binary(BinaryOp::Add, &a, &b).unwrap(),
            run_binary(BinaryOp::Add, &b, &a).unwrap()
        );
    }
}
