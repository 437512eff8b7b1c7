//! The first-class layer abstraction.

use std::fmt;

use orpheus_tensor::{TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::error::EngineError;

/// A runnable network layer — the paper's "first class citizen".
///
/// A `Layer` owns its weights and any implementation-specific pre-packed
/// state; what varies between implementations of the same operator is hidden
/// behind this trait, which is exactly what lets Orpheus swap algorithms at
/// runtime without touching the execution engine.
///
/// The trait is object-safe: the execution plan stores `Box<dyn Layer>`.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Instance name (usually the graph node name).
    fn name(&self) -> &str;

    /// Operator family, e.g. `"Conv"`, `"Dense"`, `"MaxPool"`.
    fn op_name(&self) -> &str;

    /// Human-readable description of the selected implementation,
    /// e.g. `"im2col-gemm(packed)"` or `"vendor:vnnl"`. Fixed for the
    /// layer's life, so it is built once, when the layer is.
    fn implementation(&self) -> &str;

    /// Executes the layer into `output`, a view of the planned output dims
    /// — the trait's one execution method, so every layer writes into a
    /// slice of the session's arena and none can allocate its result behind
    /// the executor's back.
    ///
    /// `inputs` are views of the activations in graph-input order (weights
    /// are layer state, not inputs).
    ///
    /// Write-once: the layer writes every element of `output` and reads
    /// none of it first. The arena is not cleared between steps, so
    /// `output` holds whatever an earlier step left there; a debug-built
    /// session fills it with NaN before every step to catch a layer that
    /// breaks this contract.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when input shapes do not match the layer or
    /// `output` does not have the layer's output dims.
    fn run_into(
        &self,
        inputs: &[TensorRef<'_>],
        output: TensorMut<'_>,
        pool: &ThreadPool,
    ) -> Result<(), EngineError>;

    /// Floating-point operations per invocation (0 when unknown or
    /// negligible); used by the profiler to report effective GFLOP/s.
    fn flops(&self) -> u64 {
        0
    }

    /// A reference implementation of this layer to run when the selected
    /// implementation fails at execution time, or `None` when the layer has
    /// no slower-but-safer twin (or already *is* the reference).
    ///
    /// The executor calls this lazily — only after a `run_into` failure — so
    /// supporting graceful degradation costs no memory on the happy path.
    fn reference_fallback(&self) -> Option<Box<dyn Layer>> {
        None
    }
}

/// Copies `input`'s storage into `output`, which may carry different dims of
/// the same element count — the view layers' copying execution path.
pub(crate) fn copy_data_into(
    layer: &str,
    input: TensorRef<'_>,
    mut output: TensorMut<'_>,
) -> Result<(), EngineError> {
    if input.len() != output.len() {
        return Err(EngineError::Execution(format!(
            "layer {layer:?} output has {} element(s) but the plan expects {}",
            input.len(),
            output.len()
        )));
    }
    output.as_mut_slice().copy_from_slice(input.as_slice());
    Ok(())
}

/// Checks the arity of a layer's inputs — shared helper for implementations.
pub(crate) fn expect_inputs<'a, 'v>(
    layer: &str,
    inputs: &'a [TensorRef<'v>],
    expected: usize,
) -> Result<&'a [TensorRef<'v>], EngineError> {
    if inputs.len() != expected {
        return Err(EngineError::Execution(format!(
            "layer {layer:?} expects {expected} inputs, got {}",
            inputs.len()
        )));
    }
    Ok(inputs)
}

/// Test support: runs `layer` into a fresh zeroed tensor of `out_dims`.
#[cfg(test)]
pub(crate) fn run_layer(
    layer: &dyn Layer,
    inputs: &[&orpheus_tensor::Tensor],
    out_dims: &[usize],
) -> Result<orpheus_tensor::Tensor, EngineError> {
    let views: Vec<TensorRef<'_>> = inputs.iter().map(|t| t.view()).collect();
    let mut out = orpheus_tensor::Tensor::zeros(out_dims);
    layer.run_into(&views, out.view_mut(), &ThreadPool::single())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_tensor::Tensor;

    #[derive(Debug)]
    struct Doubler;
    impl Layer for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn op_name(&self) -> &str {
            "Scale"
        }
        fn implementation(&self) -> &str {
            "map"
        }
        fn run_into(
            &self,
            inputs: &[TensorRef<'_>],
            mut output: TensorMut<'_>,
            _pool: &ThreadPool,
        ) -> Result<(), EngineError> {
            let inputs = expect_inputs(self.name(), inputs, 1)?;
            copy_data_into(self.name(), inputs[0], output.reborrow())?;
            for x in output.as_mut_slice() {
                *x *= 2.0;
            }
            Ok(())
        }
    }

    #[test]
    fn layer_trait_is_object_safe() {
        let layer: Box<dyn Layer> = Box::new(Doubler);
        let t = Tensor::ones(&[2]);
        let out = run_layer(layer.as_ref(), &[&t], &[2]).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 2.0]);
        assert_eq!(layer.flops(), 0);
    }

    #[test]
    fn arity_checked() {
        let t = Tensor::ones(&[1]);
        assert!(run_layer(&Doubler, &[&t, &t], &[1]).is_err());
        assert!(run_layer(&Doubler, &[], &[1]).is_err());
    }
}
