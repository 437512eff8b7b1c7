//! Safe Orpheus-side wrappers around the vendor APIs.
//!
//! These are the artifacts the paper's "integration of third party backends"
//! workflow produces: thin adapters that translate Orpheus tensors and
//! parameters into vendor calling conventions, turning status codes into
//! errors. The core crate lifts them into `Layer` implementations.

use std::error::Error;
use std::fmt;

use orpheus_ops::conv::Conv2dParams;
use orpheus_tensor::{Tensor, TensorMut, TensorRef};

use crate::vcl::{PadStrideInfo, TensorInfo, VclConvolutionLayer};
use crate::vnnl::{
    vnnl_conv_create, vnnl_conv_execute, vnnl_conv_output_dims, VnnlConvDesc, VnnlConvPrimitive,
    VnnlStatus,
};

/// Error adapting or executing a vendor backend.
#[derive(Debug)]
pub enum BackendError {
    /// The vendor library rejected the configuration.
    Rejected(String),
    /// The configuration is outside the vendor library's coverage
    /// (e.g. dilated convolution on VNNL).
    Unsupported(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Rejected(msg) => write!(f, "vendor backend rejected config: {msg}"),
            BackendError::Unsupported(msg) => write!(f, "vendor backend unsupported: {msg}"),
        }
    }
}

impl Error for BackendError {}

/// A VNNL-backed convolution.
#[derive(Debug)]
pub struct VnnlConv {
    primitive: VnnlConvPrimitive,
    params: Conv2dParams,
}

impl VnnlConv {
    /// Creates the vendor primitive from Orpheus-side parameters and weights.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] for dilated convolutions (VNNL
    /// does not expose dilation) and [`BackendError::Rejected`] when the
    /// vendor call fails.
    pub fn new(params: Conv2dParams, weight: &Tensor) -> Result<Self, BackendError> {
        if params.dilation_h != 1 || params.dilation_w != 1 {
            return Err(BackendError::Unsupported("vnnl has no dilation".into()));
        }
        let desc = VnnlConvDesc {
            in_channels: params.in_channels as u32,
            out_channels: params.out_channels as u32,
            kernel_h: params.kernel_h as u32,
            kernel_w: params.kernel_w as u32,
            stride_h: params.stride_h as u32,
            stride_w: params.stride_w as u32,
            pad_h: params.pad_h as u32,
            pad_w: params.pad_w as u32,
            groups: params.groups as u32,
        };
        let mut primitive = None;
        match vnnl_conv_create(&desc, weight.as_slice(), &mut primitive) {
            VnnlStatus::Success => Ok(VnnlConv {
                primitive: primitive.expect("success implies primitive"),
                params,
            }),
            status => Err(BackendError::Rejected(format!("{status:?}"))),
        }
    }

    /// The Orpheus-side parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Runs the convolution into a pre-sized output.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Rejected`] on vendor failure.
    pub fn run_into(
        &self,
        input: TensorRef<'_>,
        mut output: TensorMut<'_>,
    ) -> Result<(), BackendError> {
        let dims = input.dims();
        let (n, h, w) = (dims[0] as u32, dims[2] as u32, dims[3] as u32);
        match vnnl_conv_execute(
            &self.primitive,
            n,
            h,
            w,
            input.as_slice(),
            output.as_mut_slice(),
        ) {
            VnnlStatus::Success => Ok(()),
            status => Err(BackendError::Rejected(format!("{status:?}"))),
        }
    }

    /// Output dims for an input shape.
    pub fn output_dims(&self, dims: &[usize]) -> [usize; 4] {
        let desc = VnnlConvDesc {
            in_channels: self.params.in_channels as u32,
            out_channels: self.params.out_channels as u32,
            kernel_h: self.params.kernel_h as u32,
            kernel_w: self.params.kernel_w as u32,
            stride_h: self.params.stride_h as u32,
            stride_w: self.params.stride_w as u32,
            pad_h: self.params.pad_h as u32,
            pad_w: self.params.pad_w as u32,
            groups: self.params.groups as u32,
        };
        let (oh, ow) = vnnl_conv_output_dims(&desc, dims[2] as u32, dims[3] as u32);
        [dims[0], self.params.out_channels, oh as usize, ow as usize]
    }
}

/// A VCL-backed convolution.
#[derive(Debug)]
pub struct VclConv {
    layer: VclConvolutionLayer,
    params: Conv2dParams,
    configured_input: [usize; 4],
}

impl VclConv {
    /// Configures the vendor function object for a fixed input shape (VCL,
    /// like ACL, freezes shapes at configure time).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Unsupported`] for grouped or dilated
    /// convolutions, [`BackendError::Rejected`] when `configure` fails.
    pub fn new(
        params: Conv2dParams,
        weight: &Tensor,
        input_dims: [usize; 4],
    ) -> Result<Self, BackendError> {
        if params.groups != 1 {
            return Err(BackendError::Unsupported(
                "vcl wrapper is group-1 only".into(),
            ));
        }
        if params.dilation_h != 1 || params.dilation_w != 1 {
            return Err(BackendError::Unsupported("vcl has no dilation".into()));
        }
        let src = TensorInfo::new(input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
        let winfo = TensorInfo::new(
            params.out_channels,
            params.in_channels,
            params.kernel_h,
            params.kernel_w,
        );
        let info = PadStrideInfo {
            stride_x: params.stride_w,
            stride_y: params.stride_h,
            pad_x: params.pad_w,
            pad_y: params.pad_h,
        };
        let dst = TensorInfo::new(
            input_dims[0],
            params.out_channels,
            params.out_h(input_dims[2]),
            params.out_w(input_dims[3]),
        );
        let mut layer = VclConvolutionLayer::new();
        layer
            .configure(src, winfo, weight.as_slice(), dst, info)
            .map_err(|e| BackendError::Rejected(e.to_string()))?;
        Ok(VclConv {
            layer,
            params,
            configured_input: input_dims,
        })
    }

    /// The Orpheus-side parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// The input shape frozen at configure time.
    pub fn configured_input(&self) -> [usize; 4] {
        self.configured_input
    }

    /// Runs the convolution into a pre-sized output.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Rejected`] if the input shape differs from the
    /// configured one or the vendor run fails.
    pub fn run_into(
        &self,
        input: TensorRef<'_>,
        mut output: TensorMut<'_>,
    ) -> Result<(), BackendError> {
        if input.dims() != self.configured_input {
            return Err(BackendError::Rejected(format!(
                "vcl configured for {:?}, got {:?}",
                self.configured_input,
                input.dims()
            )));
        }
        self.layer
            .run(input.as_slice(), output.as_mut_slice())
            .map_err(|e| BackendError::Rejected(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_ops::conv::{Conv2d, ConvAlgorithm};
    use orpheus_tensor::allclose;
    use orpheus_threads::ThreadPool;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15);
                ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect()
    }

    fn reference(params: Conv2dParams, input: &Tensor, weight: &Tensor) -> Tensor {
        let conv = Conv2d::new(params, weight.clone(), None, ConvAlgorithm::Direct).unwrap();
        let mut out = Tensor::zeros(&conv.output_dims(input.dims()).unwrap());
        conv.run_into(input, &mut out, &ThreadPool::single())
            .unwrap();
        out
    }

    #[test]
    fn vnnl_matches_orpheus_reference() {
        let params = Conv2dParams::square(3, 8, 3)
            .with_padding(1, 1)
            .with_stride(2, 2);
        let input = Tensor::from_vec(pseudo(3 * 9 * 9, 1), &[1, 3, 9, 9]).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 2), &wd).unwrap();
        let want = reference(params, &input, &weight);
        let conv = VnnlConv::new(params, &weight).unwrap();
        let mut got = Tensor::zeros(&conv.output_dims(input.dims()));
        conv.run_into(input.view(), got.view_mut()).unwrap();
        let r = allclose(&got, &want, 1e-4, 1e-5);
        assert!(r.ok, "vnnl mismatch: {r:?}");
    }

    #[test]
    fn vnnl_grouped_matches_reference() {
        let params = Conv2dParams::square(4, 6, 3)
            .with_groups(2)
            .with_padding(1, 1);
        let input = Tensor::from_vec(pseudo(4 * 36, 3), &[1, 4, 6, 6]).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 4), &wd).unwrap();
        let want = reference(params, &input, &weight);
        let conv = VnnlConv::new(params, &weight).unwrap();
        let mut got = Tensor::zeros(&conv.output_dims(input.dims()));
        conv.run_into(input.view(), got.view_mut()).unwrap();
        assert!(allclose(&got, &want, 1e-4, 1e-5).ok);
    }

    #[test]
    fn vnnl_rejects_dilation() {
        let params = Conv2dParams::square(1, 1, 3).with_dilation(2, 2);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(matches!(
            VnnlConv::new(params, &weight),
            Err(BackendError::Unsupported(_))
        ));
    }

    #[test]
    fn vcl_matches_orpheus_reference() {
        let params = Conv2dParams::square(2, 5, 3).with_padding(1, 1);
        let dims = [1, 2, 7, 7];
        let input = Tensor::from_vec(pseudo(2 * 49, 5), &dims).unwrap();
        let wd = params.weight_dims();
        let weight = Tensor::from_vec(pseudo(wd.iter().product(), 6), &wd).unwrap();
        let want = reference(params, &input, &weight);
        let conv = VclConv::new(params, &weight, dims).unwrap();
        let mut got = Tensor::zeros(want.dims());
        conv.run_into(input.view(), got.view_mut()).unwrap();
        let r = allclose(&got, &want, 1e-4, 1e-5);
        assert!(r.ok, "vcl mismatch: {r:?}");
    }

    #[test]
    fn vcl_rejects_shape_change_after_configure() {
        let params = Conv2dParams::square(1, 1, 1);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let conv = VclConv::new(params, &weight, [1, 1, 4, 4]).unwrap();
        let wrong = Tensor::zeros(&[1, 1, 5, 5]);
        let mut out = Tensor::zeros(&[1, 1, 5, 5]);
        assert!(conv.run_into(wrong.view(), out.view_mut()).is_err());
    }

    #[test]
    fn vcl_rejects_groups() {
        let params = Conv2dParams::depthwise(4, 3);
        let weight = Tensor::zeros(&[4, 1, 3, 3]);
        assert!(matches!(
            VclConv::new(params, &weight, [1, 4, 8, 8]),
            Err(BackendError::Unsupported(_))
        ));
    }
}
