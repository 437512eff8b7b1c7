//! Layers that delegate to the simulated vendor backends.
//!
//! This module is the paper's "easy integration of third party backends"
//! made concrete: each wrapper adapts a vendor API (VNNL's C-style
//! primitives, VCL's configure/run objects) to the [`Layer`] trait, after
//! which the engine treats it identically to a native implementation — it
//! can be selected per layer, profiled, and compared.

use orpheus_backends::{BackendError, VclConv, VnnlConv};
use orpheus_ops::activation::Activation;
use orpheus_ops::conv::Conv2dParams;
use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::{expect_inputs, Layer};

impl From<BackendError> for EngineError {
    fn from(e: BackendError) -> Self {
        EngineError::Execution(e.to_string())
    }
}

/// Bias + fused-activation epilogue the integration shims apply after the
/// vendor kernel (vendor libraries compute the raw convolution only).
#[derive(Debug, Default)]
struct Epilogue {
    bias: Option<Tensor>,
    activation: Option<Activation>,
}

impl Epilogue {
    fn apply(&self, output: &mut Tensor) {
        let dims = output.dims();
        let (n, co, plane) = (dims[0], dims[1], dims[2] * dims[3]);
        let data = output.as_mut_slice();
        if let Some(bias) = &self.bias {
            let b = bias.as_slice();
            for img in 0..n {
                for c in 0..co {
                    let bc = b[c];
                    for x in &mut data[(img * co + c) * plane..][..plane] {
                        *x += bc;
                    }
                }
            }
        }
        if let Some(act) = self.activation {
            act.apply_slice(data);
        }
    }
}

/// Convolution delegated to the VNNL (DNNL-style) vendor library.
#[derive(Debug)]
pub struct VnnlConvLayer {
    name: String,
    conv: VnnlConv,
    epilogue: Epilogue,
    flops: u64,
}

impl VnnlConvLayer {
    /// Creates the layer by building a VNNL primitive from Orpheus weights.
    ///
    /// # Errors
    ///
    /// Propagates vendor rejections as [`EngineError::Execution`].
    pub fn new(
        name: &str,
        params: Conv2dParams,
        weight: &Tensor,
        bias: Option<Tensor>,
        activation: Option<Activation>,
        input_hw: (usize, usize),
    ) -> Result<Self, EngineError> {
        let flops = params.flops(input_hw.0, input_hw.1);
        Ok(VnnlConvLayer {
            name: name.to_string(),
            conv: VnnlConv::new(params, weight)?,
            epilogue: Epilogue { bias, activation },
            flops,
        })
    }
}

impl Layer for VnnlConvLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Conv"
    }
    fn implementation(&self) -> String {
        "vendor:vnnl".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        let want = self.conv.output_dims(inputs[0].dims());
        if output.dims() != want {
            return Err(EngineError::Execution(format!(
                "layer {:?} output dims {:?} do not match the plan's {:?}",
                self.name,
                want,
                output.dims()
            )));
        }
        self.conv.run_into(inputs[0], output)?;
        self.epilogue.apply(output);
        Ok(())
    }
    fn flops(&self) -> u64 {
        self.flops
    }
}

/// Convolution delegated to the VCL (ACL-style) vendor library.
#[derive(Debug)]
pub struct VclConvLayer {
    name: String,
    conv: VclConv,
    epilogue: Epilogue,
    out_dims: [usize; 4],
    flops: u64,
}

impl VclConvLayer {
    /// Creates and configures the vendor function object for a fixed input
    /// shape (VCL freezes shapes at configure time, like real ACL).
    ///
    /// # Errors
    ///
    /// Propagates vendor rejections as [`EngineError::Execution`].
    pub fn new(
        name: &str,
        params: Conv2dParams,
        weight: &Tensor,
        bias: Option<Tensor>,
        activation: Option<Activation>,
        input_dims: [usize; 4],
    ) -> Result<Self, EngineError> {
        let flops = params.flops(input_dims[2], input_dims[3]);
        let out_dims = [
            input_dims[0],
            params.out_channels,
            params.out_h(input_dims[2]),
            params.out_w(input_dims[3]),
        ];
        Ok(VclConvLayer {
            name: name.to_string(),
            conv: VclConv::new(params, weight, input_dims)?,
            epilogue: Epilogue { bias, activation },
            out_dims,
            flops,
        })
    }
}

impl Layer for VclConvLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Conv"
    }
    fn implementation(&self) -> String {
        "vendor:vcl".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        if output.dims() != self.out_dims {
            return Err(EngineError::Execution(format!(
                "layer {:?} output dims {:?} do not match the plan's {:?}",
                self.name,
                self.out_dims,
                output.dims()
            )));
        }
        self.conv.run_into(inputs[0], output)?;
        self.epilogue.apply(output);
        Ok(())
    }
    fn flops(&self) -> u64 {
        self.flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::run_layer;
    use crate::layers::native::ConvLayer;
    use orpheus_ops::conv::ConvAlgorithm;
    use orpheus_tensor::allclose;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15);
                ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn vendor_layers_match_native() {
        let params = Conv2dParams::square(3, 8, 3).with_padding(1, 1);
        let dims = [1usize, 3, 8, 8];
        let weight = Tensor::from_vec(
            pseudo(params.weight_dims().iter().product(), 1),
            &params.weight_dims(),
        )
        .unwrap();
        let input = Tensor::from_vec(pseudo(dims.iter().product(), 2), &dims).unwrap();
        let out_dims = [1usize, 8, 8, 8];

        let native = ConvLayer::new(
            "n",
            params,
            weight.clone(),
            None,
            ConvAlgorithm::Direct,
            None,
            (8, 8),
        )
        .unwrap();
        let want = run_layer(&native, &[&input], &out_dims).unwrap();

        let vnnl = VnnlConvLayer::new("v1", params, &weight, None, None, (8, 8)).unwrap();
        let got = run_layer(&vnnl, &[&input], &out_dims).unwrap();
        assert!(allclose(&got, &want, 1e-4, 1e-5).ok);
        assert_eq!(vnnl.implementation(), "vendor:vnnl");
        assert_eq!(vnnl.flops(), native.flops());

        let vcl = VclConvLayer::new("v2", params, &weight, None, None, dims).unwrap();
        let got = run_layer(&vcl, &[&input], &out_dims).unwrap();
        assert!(allclose(&got, &want, 1e-4, 1e-5).ok);
        assert_eq!(vcl.implementation(), "vendor:vcl");
    }

    #[test]
    fn epilogue_matches_native_bias_and_activation() {
        use orpheus_ops::activation::Activation;
        let params = Conv2dParams::square(2, 4, 3).with_padding(1, 1);
        let dims = [1usize, 2, 6, 6];
        let weight = Tensor::from_vec(
            pseudo(params.weight_dims().iter().product(), 3),
            &params.weight_dims(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.0], &[4]).unwrap();
        let input = Tensor::from_vec(pseudo(dims.iter().product(), 4), &dims).unwrap();
        let out_dims = [1usize, 4, 6, 6];

        let native = ConvLayer::new(
            "n",
            params,
            weight.clone(),
            Some(bias.clone()),
            ConvAlgorithm::Direct,
            Some(Activation::Relu),
            (6, 6),
        )
        .unwrap();
        let want = run_layer(&native, &[&input], &out_dims).unwrap();
        let vnnl = VnnlConvLayer::new(
            "v",
            params,
            &weight,
            Some(bias),
            Some(Activation::Relu),
            (6, 6),
        )
        .unwrap();
        let got = run_layer(&vnnl, &[&input], &out_dims).unwrap();
        let r = allclose(&got, &want, 1e-4, 1e-5);
        assert!(r.ok, "epilogue mismatch: {r:?}");
    }

    #[test]
    fn vendor_rejections_surface_as_engine_errors() {
        let params = Conv2dParams::square(1, 1, 3).with_dilation(2, 2);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(VnnlConvLayer::new("v", params, &weight, None, None, (8, 8)).is_err());
    }
}
