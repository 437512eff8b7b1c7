//! Layers backed by the `orpheus-ops` algorithm library.

use orpheus_gemm::GemmKernel;
use orpheus_ops::activation::Activation;
use orpheus_ops::concat::concat_channels_into;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_ops::dense::{Dense, DenseAlgorithm};
use orpheus_ops::elementwise::{add_activate_into, binary_into, BinaryOp};
use orpheus_ops::norm::BatchNorm;
use orpheus_ops::pad::pad_constant_into;
use orpheus_ops::pool::{global_average_pool_into, pool2d_into, Pool2dParams};
use orpheus_ops::reduce::reduce_mean_into;
use orpheus_ops::softmax::softmax_into;
use orpheus_tensor::{Tensor, TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::{copy_data_into, expect_inputs, Layer};

/// 2-D convolution layer. Wraps [`Conv2d`], which carries the selected
/// algorithm and pre-packed weights.
#[derive(Debug)]
pub struct ConvLayer {
    name: String,
    conv: Conv2d,
    /// The algorithm's name, built once for [`Layer::implementation`].
    implementation: String,
    /// FLOPs computed at lowering time from the known input shape.
    flops: u64,
}

impl ConvLayer {
    /// Creates a convolution layer.
    ///
    /// `input_hw` is the static input spatial size, used to pre-compute the
    /// FLOP count the profiler reports.
    ///
    /// # Errors
    ///
    /// Propagates [`Conv2d::new`] validation failures.
    pub fn new(
        name: &str,
        params: Conv2dParams,
        weight: Tensor,
        bias: Option<Tensor>,
        algorithm: ConvAlgorithm,
        activation: Option<Activation>,
        input_hw: (usize, usize),
    ) -> Result<Self, EngineError> {
        let flops = params.flops(input_hw.0, input_hw.1);
        let mut conv = Conv2d::new(params, weight, bias, algorithm)?;
        if let Some(act) = activation {
            conv = conv.with_activation(act);
        }
        Ok(ConvLayer::wrap(name.to_string(), conv, flops))
    }

    fn wrap(name: String, conv: Conv2d, flops: u64) -> Self {
        ConvLayer {
            implementation: conv.algorithm().to_string(),
            name,
            conv,
            flops,
        }
    }

    /// The wrapped convolution's parameters.
    pub fn params(&self) -> &Conv2dParams {
        self.conv.params()
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> ConvAlgorithm {
        self.conv.algorithm()
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Conv"
    }
    fn implementation(&self) -> &str {
        &self.implementation
    }
    fn run_into(
        &self,
        inputs: &[TensorRef<'_>],
        output: TensorMut<'_>,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(self.conv.run_into(inputs[0], output, pool)?)
    }
    fn flops(&self) -> u64 {
        self.flops
    }
    fn reference_fallback(&self) -> Option<Box<dyn Layer>> {
        // `Direct` is the reference: it supports every geometry and shares no
        // code with the optimized paths, so a bug in packing or tiling cannot
        // take it down too.
        if self.conv.algorithm() == ConvAlgorithm::Direct {
            return None;
        }
        let mut conv = Conv2d::new(
            *self.conv.params(),
            self.conv.weight().clone(),
            self.conv.bias().cloned(),
            ConvAlgorithm::Direct,
        )
        .ok()?;
        if let Some(act) = self.conv.activation() {
            conv = conv.with_activation(act);
        }
        Some(Box::new(ConvLayer::wrap(
            self.name.clone(),
            conv,
            self.flops,
        )))
    }
}

/// Fully-connected layer.
#[derive(Debug)]
pub struct DenseLayer {
    name: String,
    dense: Dense,
    flops: u64,
}

impl DenseLayer {
    /// Creates a dense layer.
    ///
    /// # Errors
    ///
    /// Propagates [`Dense::new`] validation failures.
    pub fn new(
        name: &str,
        weight: Tensor,
        bias: Option<Tensor>,
        kernel: GemmKernel,
        activation: Option<Activation>,
    ) -> Result<Self, EngineError> {
        let flops = 2 * weight.dims()[0] as u64 * weight.dims()[1] as u64;
        let mut dense = Dense::new(weight, bias, DenseAlgorithm::Gemm(kernel))?;
        if let Some(act) = activation {
            dense = dense.with_activation(act);
        }
        Ok(DenseLayer {
            name: name.to_string(),
            dense,
            flops,
        })
    }
}

impl Layer for DenseLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Dense"
    }
    fn implementation(&self) -> &str {
        "gemm"
    }
    fn run_into(
        &self,
        inputs: &[TensorRef<'_>],
        output: TensorMut<'_>,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(self.dense.run_into(inputs[0], output, pool)?)
    }
    fn flops(&self) -> u64 {
        self.flops
    }
}

/// The operator an [`OpLayer`] runs, with its parameters: every operator
/// that carries no pre-packed state of its own.
#[derive(Debug)]
pub enum Op {
    /// Max/average pooling.
    Pool(Pool2dParams),
    /// Global average pooling.
    GlobalAveragePool,
    /// Standalone batch-norm (when BN folding is disabled or blocked).
    BatchNorm(BatchNorm),
    /// Standalone activation.
    Activation(Activation),
    /// Residual addition, optionally fused with an activation.
    Add(Option<Activation>),
    /// Element-wise multiplication.
    Mul,
    /// Channel concatenation of a fixed number of inputs.
    Concat(usize),
    /// Softmax along the last axis.
    Softmax,
    /// Flatten to `[batch, rest]`.
    Flatten,
    /// Reshape to the planned output dims (resolved by shape inference at
    /// lowering time, per batch bucket).
    Reshape,
    /// Constant padding (survives only when `pad-fold` cannot absorb it),
    /// `begins[d]` before and `ends[d]` after each dimension `d`.
    Pad {
        /// Leading pad per dimension.
        begins: Vec<usize>,
        /// Trailing pad per dimension.
        ends: Vec<usize>,
        /// Fill value.
        value: f32,
    },
    /// Mean over `axes`, which lowering resolves (empty means every
    /// dimension).
    ReduceMean {
        /// Reduced dimensions.
        axes: Vec<usize>,
        /// Whether reduced dimensions stay with extent 1.
        keepdims: bool,
    },
    /// Identity (survives only when simplification is disabled).
    Identity,
}

impl Op {
    /// The operator family [`Layer::op_name`] reports.
    fn name(&self) -> &'static str {
        match self {
            Op::Pool(_) => "Pool",
            Op::GlobalAveragePool => "GlobalAveragePool",
            Op::BatchNorm(_) => "BatchNorm",
            Op::Activation(_) => "Activation",
            Op::Add(_) => "Add",
            Op::Mul => "Mul",
            Op::Concat(_) => "Concat",
            Op::Softmax => "Softmax",
            Op::Flatten => "Flatten",
            Op::Reshape => "Reshape",
            Op::Pad { .. } => "Pad",
            Op::ReduceMean { .. } => "ReduceMean",
            Op::Identity => "Identity",
        }
    }

    /// The implementation [`Layer::implementation`] reports.
    fn implementation(&self) -> String {
        match self {
            Op::Pool(params) => format!("{:?}", params.mode).to_lowercase(),
            Op::Activation(act) => format!("{act:?}").to_lowercase(),
            Op::Add(Some(act)) => format!("fused-{act:?}").to_lowercase(),
            Op::GlobalAveragePool => "direct".into(),
            Op::BatchNorm(_) => "affine".into(),
            Op::Add(None) | Op::Mul => "elementwise".into(),
            Op::Concat(_) => "memcpy".into(),
            Op::Softmax => "stable".into(),
            Op::Flatten | Op::Reshape => "view".into(),
            Op::Pad { .. } => "constant".into(),
            Op::ReduceMean { .. } => "scatter".into(),
            Op::Identity => "copy".into(),
        }
    }

    /// How many activation inputs the operator takes.
    fn arity(&self) -> usize {
        match self {
            Op::Add(_) | Op::Mul => 2,
            Op::Concat(arity) => *arity,
            _ => 1,
        }
    }
}

/// A layer running one stateless [`Op`].
#[derive(Debug)]
pub struct OpLayer {
    name: String,
    op: Op,
    /// The op's implementation name, built once for [`Layer::implementation`].
    implementation: String,
}

impl OpLayer {
    /// Creates a layer running `op`.
    pub fn new(name: &str, op: Op) -> Self {
        OpLayer {
            name: name.to_string(),
            implementation: op.implementation(),
            op,
        }
    }
}

impl Layer for OpLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        self.op.name()
    }
    fn implementation(&self) -> &str {
        &self.implementation
    }
    fn run_into(
        &self,
        inputs: &[TensorRef<'_>],
        output: TensorMut<'_>,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, self.op.arity())?;
        match &self.op {
            Op::Pool(params) => pool2d_into(params, inputs[0], output, pool)?,
            Op::GlobalAveragePool => global_average_pool_into(inputs[0], output, pool)?,
            Op::BatchNorm(bn) => bn.run_into(inputs[0], output)?,
            Op::Activation(act) => act.run_into(inputs[0], output)?,
            Op::Add(None) => binary_into(BinaryOp::Add, inputs[0], inputs[1], output)?,
            Op::Add(Some(act)) => add_activate_into(inputs[0], inputs[1], *act, output)?,
            Op::Mul => binary_into(BinaryOp::Mul, inputs[0], inputs[1], output)?,
            Op::Concat(_) => concat_channels_into(inputs, output)?,
            Op::Softmax => softmax_into(inputs[0], output)?,
            Op::Pad {
                begins,
                ends,
                value,
            } => pad_constant_into(inputs[0], begins, ends, *value, output)?,
            Op::ReduceMean { axes, keepdims } => {
                reduce_mean_into(inputs[0], axes, *keepdims, output)?
            }
            // `output` already carries the planned dims; views copy storage
            // byte-for-byte.
            Op::Flatten | Op::Reshape | Op::Identity => {
                copy_data_into(&self.name, inputs[0], output)?
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::run_layer;

    #[test]
    fn conv_layer_runs_and_reports() {
        let params = Conv2dParams::square(1, 2, 3).with_padding(1, 1);
        let layer = ConvLayer::new(
            "c0",
            params,
            Tensor::ones(&[2, 1, 3, 3]),
            None,
            ConvAlgorithm::default(),
            Some(Activation::Relu),
            (4, 4),
        )
        .unwrap();
        let out = run_layer(&layer, &[&Tensor::ones(&[1, 1, 4, 4])], &[1, 2, 4, 4]).unwrap();
        assert_eq!(out.as_slice()[5], 9.0, "interior sees the full 3x3 window");
        assert_eq!(layer.op_name(), "Conv");
        assert!(layer.flops() > 0);
        assert_eq!(layer.implementation(), "im2col-gemm(packed)");
    }

    #[test]
    fn conv_layer_reference_fallback_agrees() {
        let params = Conv2dParams::square(2, 3, 3).with_padding(1, 1);
        let layer = ConvLayer::new(
            "c0",
            params,
            Tensor::from_fn(&[3, 2, 3, 3], |i| (i % 5) as f32 * 0.1 - 0.2),
            Some(Tensor::from_fn(&[3], |i| i as f32)),
            ConvAlgorithm::default(),
            Some(Activation::Relu),
            (4, 4),
        )
        .unwrap();
        let fallback = layer
            .reference_fallback()
            .expect("optimized conv has a twin");
        assert_eq!(fallback.implementation(), "direct");
        assert_eq!(fallback.name(), layer.name());
        assert_eq!(fallback.flops(), layer.flops());
        let input = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 7) % 11) as f32 * 0.1);
        let a = run_layer(&layer, &[&input], &[1, 3, 4, 4]).unwrap();
        let b = run_layer(fallback.as_ref(), &[&input], &[1, 3, 4, 4]).unwrap();
        let r = orpheus_tensor::allclose(&a, &b, 1e-4, 1e-5);
        assert!(r.ok, "fallback disagrees with primary: {r:?}");
    }

    #[test]
    fn direct_conv_has_no_fallback() {
        let params = Conv2dParams::square(1, 1, 1);
        let layer = ConvLayer::new(
            "c",
            params,
            Tensor::ones(&[1, 1, 1, 1]),
            None,
            ConvAlgorithm::Direct,
            None,
            (2, 2),
        )
        .unwrap();
        assert!(layer.reference_fallback().is_none());
    }

    #[test]
    fn add_layer_fused_relu() {
        let layer = OpLayer::new("a", Op::Add(Some(Activation::Relu)));
        let x = Tensor::from_vec(vec![-5.0, 1.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let out = run_layer(&layer, &[&x, &y], &[2]).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.0]);
        assert!(layer.implementation().contains("relu"));
    }

    #[test]
    fn concat_layer_checks_arity() {
        let layer = OpLayer::new("cat", Op::Concat(2));
        let t = Tensor::ones(&[1, 1, 2, 2]);
        assert!(run_layer(&layer, &[&t], &[1, 2, 2, 2]).is_err());
        let out = run_layer(&layer, &[&t, &t], &[1, 2, 2, 2]).unwrap();
        assert_eq!(out.sum(), 8.0);
    }

    #[test]
    fn view_layers_copy_storage_into_the_planned_dims() {
        let t = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let flat = run_layer(&OpLayer::new("f", Op::Flatten), &[&t], &[1, 8]).unwrap();
        assert_eq!(flat.as_slice(), t.as_slice());
        let rs = run_layer(&OpLayer::new("r", Op::Reshape), &[&t], &[2, 4]).unwrap();
        assert_eq!(rs.as_slice(), t.as_slice());
        assert!(run_layer(&OpLayer::new("r", Op::Reshape), &[&t], &[3, 3]).is_err());
        let id = run_layer(&OpLayer::new("i", Op::Identity), &[&t], t.dims()).unwrap();
        assert_eq!(id, t);
    }

    #[test]
    fn dense_layer_runs() {
        let layer = DenseLayer::new(
            "fc",
            Tensor::ones(&[2, 3]),
            Some(Tensor::zeros(&[2])),
            GemmKernel::Packed,
            None,
        )
        .unwrap();
        let out = run_layer(&layer, &[&Tensor::ones(&[1, 3])], &[1, 2]).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 3.0]);
        assert_eq!(layer.flops(), 12);
    }

    #[test]
    fn pool_layers_run() {
        let t = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let p = OpLayer::new("p", Op::Pool(Pool2dParams::max(2, 2)));
        let out = run_layer(&p, &[&t], &[1, 1, 2, 2]).unwrap();
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        let g = run_layer(
            &OpLayer::new("g", Op::GlobalAveragePool),
            &[&t],
            &[1, 1, 1, 1],
        )
        .unwrap();
        assert_eq!(g.as_slice(), &[7.5]);
        // A mis-planned output extent is an error, not a silent resize.
        assert!(run_layer(&p, &[&t], &[1, 1, 3, 3]).is_err());
    }

    #[test]
    fn pad_and_reduce_mean_write_in_place() {
        let t = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32 + 1.0);
        let pad = OpLayer::new(
            "p",
            Op::Pad {
                begins: vec![0, 0, 1, 1],
                ends: vec![0, 0, 1, 1],
                value: 0.0,
            },
        );
        let out = run_layer(&pad, &[&t], &[1, 1, 4, 4]).unwrap();
        assert_eq!(out.sum(), 10.0);
        assert_eq!(out.as_slice()[5], 1.0);
        assert!(run_layer(&pad, &[&t], &[1, 1, 3, 3]).is_err());
        let all = OpLayer::new(
            "m",
            Op::ReduceMean {
                axes: vec![0, 1, 2, 3],
                keepdims: true,
            },
        );
        let mean = run_layer(&all, &[&t], &[1, 1, 1, 1]).unwrap();
        assert_eq!(mean.as_slice(), &[2.5]);
        let spatial = OpLayer::new(
            "m",
            Op::ReduceMean {
                axes: vec![3],
                keepdims: false,
            },
        );
        let rows = run_layer(&spatial, &[&t], &[1, 1, 2]).unwrap();
        assert_eq!(rows.as_slice(), &[1.5, 3.5]);
    }
}
