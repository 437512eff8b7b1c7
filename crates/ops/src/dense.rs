//! Fully-connected (dense) layer.

use orpheus_gemm::{gemm_parallel, gemm_prepacked_b, GemmKernel, PackedWeights};
use orpheus_tensor::{ShapeError, Tensor, TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::activation::Activation;
use crate::error::{expect_dims, expect_rank, OpError};

/// Dense layer algorithm choice, mirroring the convolution design: the same
/// layer can run a naive loop or any GEMM tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenseAlgorithm {
    /// Row-by-row dot products.
    Naive,
    /// GEMM at the given kernel tier.
    Gemm(GemmKernel),
}

impl Default for DenseAlgorithm {
    fn default() -> Self {
        DenseAlgorithm::Gemm(GemmKernel::Packed)
    }
}

/// A fully-connected layer: `y = x · Wᵀ + b`.
///
/// `x` is `[batch, in_features]` (higher-rank inputs are flattened),
/// `W` is `[out_features, in_features]` (the ONNX `Gemm` transB layout used
/// by classifier heads), `b` is `[out_features]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Option<Tensor>,
    activation: Option<Activation>,
    algorithm: DenseAlgorithm,
    /// `Wᵀ` packed into GEMM micro-panels at construction, for the
    /// `Packed`/`PackedScalar` tiers: `y = x·Wᵀ` then runs as one GEMM over
    /// the whole batch with zero weight-packing work per run.
    packed: Option<PackedWeights>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer from a `[out_features, in_features]` weight.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] if `weight` is not rank 2 or `bias` does
    /// not have `[out_features]` dims.
    pub fn new(
        weight: Tensor,
        bias: Option<Tensor>,
        algorithm: DenseAlgorithm,
    ) -> Result<Self, OpError> {
        expect_rank(weight.dims(), 2)?;
        let out_features = weight.dims()[0];
        let in_features = weight.dims()[1];
        if let Some(b) = &bias {
            expect_dims(b.dims(), &[out_features])?;
        }
        let packed = match algorithm {
            DenseAlgorithm::Gemm(GemmKernel::Packed | GemmKernel::PackedScalar) => Some(
                PackedWeights::pack_b_transposed(weight.as_slice(), out_features, in_features),
            ),
            _ => None,
        };
        Ok(Dense {
            weight,
            bias,
            activation: None,
            algorithm,
            packed,
            in_features,
            out_features,
        })
    }

    /// Fuses an activation into the output write-back.
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = Some(activation);
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Runs the layer into a preallocated `[batch, out_features]` output: a
    /// [`Tensor`] or a view of one, either way written whole and never read.
    /// Inputs of rank > 2 are flattened to `[batch, in_features]` first (the
    /// classifier-head idiom).
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] if the flattened feature count does not
    /// match the weight, or `output` does not have dims
    /// `[batch, out_features]`.
    pub fn run_into<'i, 'o>(
        &self,
        input: impl Into<TensorRef<'i>>,
        output: impl Into<TensorMut<'o>>,
        pool: &ThreadPool,
    ) -> Result<(), OpError> {
        let (input, mut output) = (input.into(), output.into());
        let batch = self.batch_of(input)?;
        expect_dims(output.dims(), &[batch, self.out_features])?;
        let x = input.as_slice();
        let w = self.weight.as_slice();
        let y = output.as_mut_slice();
        match self.algorithm {
            DenseAlgorithm::Naive => {
                for b in 0..batch {
                    for o in 0..self.out_features {
                        let mut acc = 0.0f32;
                        let wrow = &w[o * self.in_features..(o + 1) * self.in_features];
                        let xrow = &x[b * self.in_features..(b + 1) * self.in_features];
                        for (wi, xi) in wrow.iter().zip(xrow) {
                            acc += wi * xi;
                        }
                        y[b * self.out_features + o] = acc;
                    }
                }
            }
            DenseAlgorithm::Gemm(kernel) => {
                // y[batch, out] = x[batch, in] · Wᵀ.
                if let Some(pw) = &self.packed {
                    // Wᵀ was packed at construction: one whole-batch GEMM,
                    // no weight packing and no allocation in steady state.
                    gemm_prepacked_b(
                        kernel,
                        batch,
                        x,
                        self.in_features,
                        pw,
                        y,
                        self.out_features,
                        0.0,
                    );
                } else if batch == 1 {
                    // Unpacked tiers: GEMM wants row-major operands, so
                    // compute yᵀ = W · xᵀ when batch == 1 (the common
                    // inference case) and fall back to per-row GEMV
                    // otherwise.
                    gemm_parallel(
                        kernel,
                        pool,
                        self.out_features,
                        1,
                        self.in_features,
                        w,
                        self.in_features,
                        x,
                        1,
                        y,
                        1,
                        0.0,
                    );
                } else {
                    for b in 0..batch {
                        let xrow = &x[b * self.in_features..(b + 1) * self.in_features];
                        let yrow = &mut y[b * self.out_features..(b + 1) * self.out_features];
                        gemm_parallel(
                            kernel,
                            pool,
                            self.out_features,
                            1,
                            self.in_features,
                            w,
                            self.in_features,
                            xrow,
                            1,
                            yrow,
                            1,
                            0.0,
                        );
                    }
                }
            }
        }
        if let Some(bias) = &self.bias {
            let bs = bias.as_slice();
            for b in 0..batch {
                let yrow = &mut y[b * self.out_features..(b + 1) * self.out_features];
                for (yo, &bo) in yrow.iter_mut().zip(bs) {
                    *yo += bo;
                }
            }
        }
        if let Some(act) = self.activation {
            act.apply_slice(y);
        }
        Ok(())
    }

    /// Validates the input dims and returns the batch size.
    fn batch_of(&self, input: TensorRef<'_>) -> Result<usize, OpError> {
        let total = input.len();
        if !total.is_multiple_of(self.in_features) {
            return Err(ShapeError::Mismatch {
                left: input.dims().to_vec(),
                right: vec![self.in_features],
            }
            .into());
        }
        let batch = total / self.in_features;
        if input.dims().len() >= 2 && input.dims()[0] != batch {
            return Err(ShapeError::Mismatch {
                left: input.dims().to_vec(),
                right: vec![batch, self.in_features],
            }
            .into());
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_op;

    fn pool1() -> ThreadPool {
        ThreadPool::single()
    }

    /// Runs `d` into a fresh `[batch, out_features]` output (`[0]` for an
    /// input with no whole batch, so `run_into` itself rejects it).
    fn run_dense(d: &Dense, x: &Tensor) -> Result<Tensor, OpError> {
        let dims = d
            .batch_of(x.view())
            .map_or(vec![0], |b| vec![b, d.out_features()]);
        run_op(&dims, |out| d.run_into(x, out, &pool1()))
    }

    #[test]
    fn identity_weight() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let d = Dense::new(w, None, DenseAlgorithm::Naive).unwrap();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        assert_eq!(run_dense(&d, &x).unwrap().as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn bias_added() {
        let w = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let d = Dense::new(w, Some(b), DenseAlgorithm::default()).unwrap();
        let x = Tensor::ones(&[1, 3]);
        assert_eq!(run_dense(&d, &x).unwrap().as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn gemm_matches_naive() {
        let w = Tensor::from_fn(&[10, 37], |i| ((i * 7) % 13) as f32 * 0.1 - 0.6);
        let x = Tensor::from_fn(&[3, 37], |i| ((i * 11) % 17) as f32 * 0.2 - 1.5);
        let naive = run_dense(
            &Dense::new(w.clone(), None, DenseAlgorithm::Naive).unwrap(),
            &x,
        )
        .unwrap();
        for kernel in GemmKernel::ALL {
            let g = run_dense(
                &Dense::new(w.clone(), None, DenseAlgorithm::Gemm(kernel)).unwrap(),
                &x,
            )
            .unwrap();
            for (a, b) in naive.as_slice().iter().zip(g.as_slice()) {
                assert!((a - b).abs() < 1e-4, "{kernel}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn flattens_nchw_input() {
        // Classifier head after global pooling: [1, 4, 1, 1] -> 4 features.
        let w = Tensor::ones(&[2, 4]);
        let d = Dense::new(w, None, DenseAlgorithm::default()).unwrap();
        let x = Tensor::from_fn(&[1, 4, 1, 1], |i| i as f32);
        let y = run_dense(&d, &x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn rejects_feature_mismatch() {
        let w = Tensor::zeros(&[2, 3]);
        let d = Dense::new(w, None, DenseAlgorithm::Naive).unwrap();
        assert!(run_dense(&d, &Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn rejects_rank1_weight() {
        assert!(Dense::new(Tensor::zeros(&[4]), None, DenseAlgorithm::Naive).is_err());
    }

    #[test]
    fn rejects_wrong_bias() {
        let w = Tensor::zeros(&[2, 3]);
        assert!(Dense::new(w, Some(Tensor::zeros(&[3])), DenseAlgorithm::Naive).is_err());
    }

    #[test]
    fn fused_activation() {
        let w = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
        let d = Dense::new(w, None, DenseAlgorithm::Naive)
            .unwrap()
            .with_activation(Activation::Relu);
        let x = Tensor::ones(&[1, 1]);
        assert_eq!(run_dense(&d, &x).unwrap().as_slice(), &[0.0]);
    }

    /// The prepacked whole-batch GEMM must give each row exactly the result
    /// a batch-of-one run gives: row accumulators are independent and the
    /// `k` summation order does not depend on the batch size.
    #[test]
    fn prepacked_bit_identical_across_batch() {
        let w = Tensor::from_fn(&[10, 37], |i| ((i * 7) % 13) as f32 * 0.1 - 0.6);
        let d = Dense::new(w, None, DenseAlgorithm::Gemm(GemmKernel::Packed)).unwrap();
        let x = Tensor::from_fn(&[5, 37], |i| ((i * 11) % 17) as f32 * 0.2 - 1.5);
        let batched = run_dense(&d, &x).unwrap();
        for b in 0..5 {
            let one =
                Tensor::from_vec(x.as_slice()[b * 37..(b + 1) * 37].to_vec(), &[1, 37]).unwrap();
            let single = run_dense(&d, &one).unwrap();
            assert_eq!(
                single.as_slice(),
                &batched.as_slice()[b * 10..(b + 1) * 10],
                "row {b} differs from its batched run"
            );
        }
    }

    #[test]
    fn batched_input() {
        let w = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2]).unwrap();
        let d = Dense::new(w, None, DenseAlgorithm::default()).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0], &[2, 2]).unwrap();
        let y = run_dense(&d, &x).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 3.0, 4.0, 6.0]);
    }
}
