//! 2-D convolution with runtime-selectable algorithms.
//!
//! This module is the concrete realization of the paper's headline claim:
//! one layer type, many implementations, chosen at runtime. The algorithm
//! families and the framework personalities they model:
//!
//! | Algorithm | Modeled behaviour |
//! |---|---|
//! | [`ConvAlgorithm::Direct`] | DarkNet's naive direct convolution |
//! | [`ConvAlgorithm::Im2colGemm`] | Orpheus (packed GEMM) and PyTorch (naive GEMM) |
//! | [`ConvAlgorithm::SpatialPack`] | TVM's "spatial pack" ARM CPU primitive |
//! | [`ConvAlgorithm::Winograd`] | Fast 3×3 algebra (an Orpheus extension point) |
//! | [`ConvAlgorithm::DepthwiseDirect`] | A dedicated depthwise kernel (what PyTorch lacked, per the paper) |

mod depthwise;
mod direct;
mod im2col_gemm;
mod spatial_pack;
mod winograd;

use std::fmt;

use orpheus_gemm::GemmKernel;
use orpheus_tensor::{ShapeError, Tensor};
use orpheus_threads::ThreadPool;

use crate::activation::Activation;
use crate::error::OpError;

/// Geometry and grouping of a 2-D convolution.
///
/// Weights use the ONNX/PyTorch layout `[out_channels, in_channels/groups,
/// kernel_h, kernel_w]`; activations are NCHW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero padding top/bottom.
    pub pad_h: usize,
    /// Zero padding left/right.
    pub pad_w: usize,
    /// Vertical dilation.
    pub dilation_h: usize,
    /// Horizontal dilation.
    pub dilation_w: usize,
    /// Channel groups (`in_channels` for depthwise).
    pub groups: usize,
}

impl Conv2dParams {
    /// Square-kernel convolution with stride 1, no padding, no dilation,
    /// one group.
    pub fn square(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dParams {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
            dilation_h: 1,
            dilation_w: 1,
            groups: 1,
        }
    }

    /// Depthwise convolution: one group per channel.
    pub fn depthwise(channels: usize, kernel: usize) -> Self {
        let mut p = Conv2dParams::square(channels, channels, kernel);
        p.groups = channels;
        p
    }

    /// Sets both strides.
    pub fn with_stride(mut self, stride_h: usize, stride_w: usize) -> Self {
        self.stride_h = stride_h;
        self.stride_w = stride_w;
        self
    }

    /// Sets both paddings.
    pub fn with_padding(mut self, pad_h: usize, pad_w: usize) -> Self {
        self.pad_h = pad_h;
        self.pad_w = pad_w;
        self
    }

    /// Sets the group count.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Sets both dilations.
    pub fn with_dilation(mut self, dilation_h: usize, dilation_w: usize) -> Self {
        self.dilation_h = dilation_h;
        self.dilation_w = dilation_w;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::InvalidParams`] when any extent is zero or the
    /// channel counts are not divisible by `groups`.
    pub fn validate(&self) -> Result<(), OpError> {
        let nonzero = [
            self.in_channels,
            self.out_channels,
            self.kernel_h,
            self.kernel_w,
            self.stride_h,
            self.stride_w,
            self.dilation_h,
            self.dilation_w,
            self.groups,
        ];
        if nonzero.contains(&0) {
            return Err(OpError::InvalidParams(
                "all extents, strides, dilations and groups must be positive".into(),
            ));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(OpError::InvalidParams(format!(
                "channels ({}, {}) not divisible by groups {}",
                self.in_channels, self.out_channels, self.groups
            )));
        }
        Ok(())
    }

    /// Whether this is a depthwise convolution (one group per channel,
    /// channel multiplier 1).
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.in_channels && self.in_channels == self.out_channels && self.groups > 1
    }

    /// Whether this is a pointwise convolution: 1x1 kernel, stride 1, no
    /// padding. Its input planes already are the GEMM operand, so GEMM
    /// convolution has no lowering cost at all. (Dilation is irrelevant to a
    /// single tap.)
    pub fn is_pointwise(&self) -> bool {
        (self.kernel_h, self.kernel_w) == (1, 1)
            && (self.stride_h, self.stride_w) == (1, 1)
            && (self.pad_h, self.pad_w) == (0, 0)
    }

    /// Output height for an input of height `in_h`.
    pub fn out_h(&self, in_h: usize) -> usize {
        conv_out_dim(
            in_h,
            self.kernel_h,
            self.stride_h,
            self.pad_h,
            self.dilation_h,
        )
    }

    /// Output width for an input of width `in_w`.
    pub fn out_w(&self, in_w: usize) -> usize {
        conv_out_dim(
            in_w,
            self.kernel_w,
            self.stride_w,
            self.pad_w,
            self.dilation_w,
        )
    }

    /// Expected weight tensor dims.
    pub fn weight_dims(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels / self.groups,
            self.kernel_h,
            self.kernel_w,
        ]
    }

    /// Multiply-add FLOPs for one image of `in_h x in_w` (2 ops per MAC).
    pub fn flops(&self, in_h: usize, in_w: usize) -> u64 {
        2 * self.out_channels as u64
            * (self.in_channels / self.groups) as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
            * self.out_h(in_h) as u64
            * self.out_w(in_w) as u64
    }
}

/// Output extent of one convolution dimension.
pub(crate) fn conv_out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
) -> usize {
    let effective = dilation * (kernel - 1) + 1;
    (input + 2 * pad).saturating_sub(effective) / stride + 1
}

/// Which convolution algorithm a [`Conv2d`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvAlgorithm {
    /// Naive direct convolution — seven nested loops.
    Direct,
    /// GEMM convolution at the given kernel tier. The packed tiers run it as
    /// implicit GEMM — operand panels gathered straight from the image, no
    /// column matrix; the naive/blocked tiers lower through `im2col`.
    /// Pointwise (1x1, stride 1, unpadded) inputs are the operand as they
    /// stand, at every tier.
    Im2colGemm(GemmKernel),
    /// im2col + GEMM that **always** materializes the column matrix, even
    /// for pointwise convolutions — the behaviour of eager unfold-based
    /// frameworks (the `pytorch-sim` personality runs on this variant).
    Im2colGemmEager(GemmKernel),
    /// TVM-style spatial packing: pre-packed weights, padded input, register
    /// tiles over output channels and width.
    SpatialPack,
    /// Winograd F(2×2, 3×3). Only valid for 3×3, stride-1, dilation-1,
    /// group-1 convolutions.
    Winograd,
    /// Specialized direct depthwise kernel: a zero-bordered, phase-split
    /// copy of each plane under a register-accumulated stencil. Only valid
    /// when [`Conv2dParams::is_depthwise`] holds and the kernel has at most
    /// [`DEPTHWISE_MAX_TAPS`] taps.
    DepthwiseDirect,
}

impl Default for ConvAlgorithm {
    /// Orpheus's default: im2col + packed GEMM.
    fn default() -> Self {
        ConvAlgorithm::Im2colGemm(GemmKernel::Packed)
    }
}

/// Most kernel taps (`kernel_h * kernel_w`) the dedicated depthwise kernel
/// takes: its tap-offset table is a stack array of this size, and 7×7 is
/// the largest depthwise kernel the published mobile architectures use.
/// Larger depthwise kernels run as grouped GEMM convolution.
pub const DEPTHWISE_MAX_TAPS: usize = 49;

impl ConvAlgorithm {
    /// Whether the algorithm can execute a convolution with these parameters.
    pub fn supports(&self, params: &Conv2dParams) -> bool {
        let depthwise_kernel =
            params.is_depthwise() && params.kernel_h * params.kernel_w <= DEPTHWISE_MAX_TAPS;
        match self {
            ConvAlgorithm::Direct
            | ConvAlgorithm::Im2colGemm(_)
            | ConvAlgorithm::Im2colGemmEager(_) => true,
            // Depthwise geometry degenerates to the depthwise kernel.
            ConvAlgorithm::SpatialPack => params.groups == 1 || depthwise_kernel,
            ConvAlgorithm::Winograd => {
                params.kernel_h == 3
                    && params.kernel_w == 3
                    && params.stride_h == 1
                    && params.stride_w == 1
                    && params.dilation_h == 1
                    && params.dilation_w == 1
                    && params.groups == 1
            }
            ConvAlgorithm::DepthwiseDirect => depthwise_kernel,
        }
    }
}

impl fmt::Display for ConvAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvAlgorithm::Direct => write!(f, "direct"),
            ConvAlgorithm::Im2colGemm(k) => write!(f, "im2col-gemm({k})"),
            ConvAlgorithm::Im2colGemmEager(k) => write!(f, "im2col-gemm-eager({k})"),
            ConvAlgorithm::SpatialPack => write!(f, "spatial-pack"),
            ConvAlgorithm::Winograd => write!(f, "winograd"),
            ConvAlgorithm::DepthwiseDirect => write!(f, "depthwise-direct"),
        }
    }
}

/// Algorithm-specific state prepared once at construction.
#[derive(Debug, Clone)]
enum Prepared {
    /// No preprocessing needed.
    Plain,
    /// GEMM convolution: each group's `[cog x k]` weight matrix packed into
    /// GEMM micro-panels, so the run loop loads only the activation operand.
    /// Built for the `Packed`/`PackedScalar` tiers of both variants (the
    /// eager one still materialises its column matrix first); the
    /// naive/blocked tiers multiply the raw weights to preserve the framework
    /// behaviour class they model.
    Gemm(Vec<orpheus_gemm::PackedWeights>),
    /// Spatial pack: weights repacked into `[co_tile][ci][ky][kx][VC]`.
    SpatialPack(spatial_pack::PackedWeights),
    /// Winograd: weights transformed into `U[16][co][ci]`.
    Winograd(winograd::TransformedWeights),
}

/// A ready-to-run convolution layer: parameters, weights, bias, a selected
/// algorithm, and any algorithm-specific pre-packed state.
///
/// Constructing the layer performs all weight preprocessing, so `run` timing
/// reflects steady-state inference — the quantity the paper measures.
#[derive(Debug, Clone)]
pub struct Conv2d {
    params: Conv2dParams,
    weight: Tensor,
    bias: Option<Tensor>,
    activation: Option<Activation>,
    algorithm: ConvAlgorithm,
    prepared: Prepared,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Errors
    ///
    /// * [`OpError::InvalidParams`] if `params` are inconsistent.
    /// * [`OpError::Shape`] if `weight`/`bias` dims do not match `params`.
    /// * [`OpError::Unsupported`] if `algorithm` cannot run this geometry.
    pub fn new(
        params: Conv2dParams,
        weight: Tensor,
        bias: Option<Tensor>,
        algorithm: ConvAlgorithm,
    ) -> Result<Self, OpError> {
        params.validate()?;
        let expected = params.weight_dims();
        if weight.dims() != expected {
            return Err(ShapeError::Mismatch {
                left: weight.dims().to_vec(),
                right: expected.to_vec(),
            }
            .into());
        }
        if let Some(b) = &bias {
            if b.dims() != [params.out_channels] {
                return Err(ShapeError::Mismatch {
                    left: b.dims().to_vec(),
                    right: vec![params.out_channels],
                }
                .into());
            }
        }
        if !algorithm.supports(&params) {
            return Err(OpError::Unsupported(format!(
                "{algorithm} cannot run {params:?}"
            )));
        }
        let prepared = match algorithm {
            ConvAlgorithm::Im2colGemm(GemmKernel::Packed | GemmKernel::PackedScalar)
            | ConvAlgorithm::Im2colGemmEager(GemmKernel::Packed | GemmKernel::PackedScalar) => {
                Prepared::Gemm(im2col_gemm::prepack_weights(&params, &weight))
            }
            ConvAlgorithm::SpatialPack if !params.is_depthwise() => {
                Prepared::SpatialPack(spatial_pack::pack_weights(&params, &weight))
            }
            ConvAlgorithm::Winograd => {
                Prepared::Winograd(winograd::transform_weights(&params, &weight))
            }
            _ => Prepared::Plain,
        };
        Ok(Conv2d {
            params,
            weight,
            bias,
            activation: None,
            algorithm,
            prepared,
        })
    }

    /// Fuses an activation to apply during output write-back.
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = Some(activation);
        self
    }

    /// The layer's parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> ConvAlgorithm {
        self.algorithm
    }

    /// The weight tensor as passed at construction (`[co, ci/g, kh, kw]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor, if any.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// The fused activation, if any.
    pub fn activation(&self) -> Option<Activation> {
        self.activation
    }

    /// Output dims for an input of `dims` (must be `[n, c, h, w]`).
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] if the input is not rank 4 or its channel
    /// count differs from `params.in_channels`.
    pub fn output_dims(&self, dims: &[usize]) -> Result<[usize; 4], OpError> {
        if dims.len() != 4 {
            return Err(ShapeError::RankMismatch {
                expected: 4,
                actual: dims.len(),
            }
            .into());
        }
        if dims[1] != self.params.in_channels {
            return Err(ShapeError::Mismatch {
                left: vec![dims[1]],
                right: vec![self.params.in_channels],
            }
            .into());
        }
        Ok([
            dims[0],
            self.params.out_channels,
            self.params.out_h(dims[2]),
            self.params.out_w(dims[3]),
        ])
    }

    /// Runs the convolution, allocating the output.
    ///
    /// # Errors
    ///
    /// See [`Conv2d::output_dims`].
    pub fn run(&self, input: &Tensor, pool: &ThreadPool) -> Result<Tensor, OpError> {
        let out_dims = self.output_dims(input.dims())?;
        let mut output = Tensor::zeros(&out_dims);
        self.run_into(input, &mut output, pool)?;
        Ok(output)
    }

    /// Runs the convolution into a pre-allocated output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] if `output` does not have the expected dims.
    pub fn run_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), OpError> {
        let out_dims = self.output_dims(input.dims())?;
        if output.dims() != out_dims {
            return Err(ShapeError::Mismatch {
                left: output.dims().to_vec(),
                right: out_dims.to_vec(),
            }
            .into());
        }
        match (&self.algorithm, &self.prepared) {
            (ConvAlgorithm::Direct, _) => {
                direct::conv2d_direct_into(&self.params, input, &self.weight, output, pool)
            }
            (
                ConvAlgorithm::Im2colGemm(kernel) | ConvAlgorithm::Im2colGemmEager(kernel),
                prepared,
            ) => im2col_gemm::conv2d_im2col_into(
                &self.params,
                input,
                &self.weight,
                match prepared {
                    Prepared::Gemm(packed) => Some(packed),
                    _ => None,
                },
                output,
                *kernel,
                matches!(self.algorithm, ConvAlgorithm::Im2colGemmEager(_)),
                pool,
            ),
            (ConvAlgorithm::SpatialPack, Prepared::SpatialPack(packed)) => {
                spatial_pack::conv2d_spatial_pack_into(&self.params, input, packed, output, pool)
            }
            // Depthwise geometry: spatial pack degenerates to the dedicated
            // depthwise kernel (as in TVM). The kernel applies bias and
            // activation itself, so this arm skips `finish`.
            (ConvAlgorithm::SpatialPack | ConvAlgorithm::DepthwiseDirect, _) => {
                depthwise::conv2d_depthwise_into(
                    &self.params,
                    input,
                    &self.weight,
                    self.bias.as_ref(),
                    self.activation,
                    output,
                    pool,
                );
                return Ok(());
            }
            (ConvAlgorithm::Winograd, Prepared::Winograd(tw)) => {
                winograd::conv2d_winograd_into(&self.params, input, tw, output, pool)
            }
            (ConvAlgorithm::Winograd, _) => unreachable!("winograd state prepared in new()"),
        }
        self.finish(output);
        Ok(())
    }

    /// Applies bias and fused activation in one pass over the output, one
    /// channel plane at a time.
    fn finish(&self, output: &mut Tensor) {
        if self.bias.is_none() && self.activation.is_none() {
            return;
        }
        let dims = output.dims();
        let (co, plane) = (dims[1], dims[2] * dims[3]);
        if plane == 0 {
            return;
        }
        let bias = self.bias.as_ref().map(Tensor::as_slice);
        for (p, data) in output.as_mut_slice().chunks_exact_mut(plane).enumerate() {
            if let Some(b) = bias {
                let bc = b[p % co];
                for x in data.iter_mut() {
                    *x += bc;
                }
            }
            if let Some(act) = self.activation {
                act.apply_slice(data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims_formula() {
        let p = Conv2dParams::square(3, 64, 7)
            .with_stride(2, 2)
            .with_padding(3, 3);
        assert_eq!(p.out_h(224), 112);
        let p = Conv2dParams::square(16, 16, 3).with_padding(1, 1);
        assert_eq!(p.out_h(32), 32);
    }

    #[test]
    fn validate_rejects_bad_groups() {
        let p = Conv2dParams::square(3, 8, 3).with_groups(2);
        assert!(p.validate().is_err());
        let p = Conv2dParams::square(4, 8, 3).with_groups(2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_extent() {
        let mut p = Conv2dParams::square(3, 8, 3);
        p.stride_h = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn depthwise_detection() {
        assert!(Conv2dParams::depthwise(32, 3).is_depthwise());
        assert!(!Conv2dParams::square(32, 32, 3).is_depthwise());
        assert!(!Conv2dParams::square(1, 1, 3).is_depthwise());
    }

    #[test]
    fn weight_dims_account_for_groups() {
        let p = Conv2dParams::square(8, 16, 3).with_groups(4);
        assert_eq!(p.weight_dims(), [16, 2, 3, 3]);
    }

    #[test]
    fn flops_known_case() {
        // 1x1 conv, 2 in, 3 out, 4x4 output: 2*3*2*1*1*16 = 192.
        let p = Conv2dParams::square(2, 3, 1);
        assert_eq!(p.flops(4, 4), 192);
    }

    #[test]
    fn winograd_support_matrix() {
        let ok = Conv2dParams::square(8, 8, 3).with_padding(1, 1);
        assert!(ConvAlgorithm::Winograd.supports(&ok));
        let strided = ok.with_stride(2, 2);
        assert!(!ConvAlgorithm::Winograd.supports(&strided));
        let five = Conv2dParams::square(8, 8, 5);
        assert!(!ConvAlgorithm::Winograd.supports(&five));
    }

    #[test]
    fn depthwise_direct_requires_depthwise() {
        assert!(ConvAlgorithm::DepthwiseDirect.supports(&Conv2dParams::depthwise(8, 3)));
        assert!(!ConvAlgorithm::DepthwiseDirect.supports(&Conv2dParams::square(8, 8, 3)));
    }

    #[test]
    fn new_rejects_wrong_weight_shape() {
        let p = Conv2dParams::square(3, 8, 3);
        let w = Tensor::zeros(&[8, 3, 5, 5]);
        assert!(Conv2d::new(p, w, None, ConvAlgorithm::Direct).is_err());
    }

    #[test]
    fn new_rejects_wrong_bias_shape() {
        let p = Conv2dParams::square(3, 8, 3);
        let w = Tensor::zeros(&[8, 3, 3, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(Conv2d::new(p, w, Some(b), ConvAlgorithm::Direct).is_err());
    }

    #[test]
    fn new_rejects_unsupported_algorithm() {
        let p = Conv2dParams::square(3, 8, 5);
        let w = Tensor::zeros(&[8, 3, 5, 5]);
        let err = Conv2d::new(p, w, None, ConvAlgorithm::Winograd).unwrap_err();
        assert!(matches!(err, OpError::Unsupported(_)));
    }

    #[test]
    fn run_rejects_wrong_input_channels() {
        let p = Conv2dParams::square(3, 8, 3);
        let w = Tensor::zeros(&[8, 3, 3, 3]);
        let conv = Conv2d::new(p, w, None, ConvAlgorithm::Direct).unwrap();
        let bad = Tensor::zeros(&[1, 4, 8, 8]);
        assert!(conv.run(&bad, &ThreadPool::single()).is_err());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let p = Conv2dParams::square(1, 2, 1);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let conv = Conv2d::new(p, w, Some(b), ConvAlgorithm::Direct).unwrap();
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv.run(&input, &ThreadPool::single()).unwrap();
        assert_eq!(out.plane(0, 0).unwrap(), &[1.0; 4]);
        assert_eq!(out.plane(0, 1).unwrap(), &[-2.0; 4]);
    }

    #[test]
    fn fused_activation_applies() {
        let p = Conv2dParams::square(1, 1, 1);
        let w = Tensor::from_vec(vec![-1.0], &[1, 1, 1, 1]).unwrap();
        let conv = Conv2d::new(p, w, None, ConvAlgorithm::Direct)
            .unwrap()
            .with_activation(Activation::Relu);
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv.run(&input, &ThreadPool::single()).unwrap();
        assert_eq!(out.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(ConvAlgorithm::default().to_string(), "im2col-gemm(packed)");
        assert_eq!(ConvAlgorithm::SpatialPack.to_string(), "spatial-pack");
    }
}
