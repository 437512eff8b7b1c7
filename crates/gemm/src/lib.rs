//! General matrix multiplication for Orpheus.
//!
//! The paper attributes Orpheus's wins on large models to GEMM-based
//! convolution ("GEMM convolution, which pays off for big matrices"). This
//! crate provides the GEMM itself, in three tiers that double as the ablation
//! axis for the `gemm_kernels` benchmark:
//!
//! * [`GemmKernel::Naive`] — textbook triple loop, the behaviour class of
//!   unoptimized frameworks (our `pytorch-sim` personality uses this tier).
//! * [`GemmKernel::Blocked`] — cache-tiled `i-k-j` ordering that
//!   autovectorizes across the output row.
//! * [`GemmKernel::Packed`] — BLIS-style packed panels with a register-tiled
//!   micro-kernel dispatched at runtime (AVX-512 or AVX2/FMA where the CPU
//!   supports it, scalar otherwise); the tier the `orpheus` personality uses.
//! * [`GemmKernel::PackedScalar`] — the packed tier pinned to the scalar
//!   micro-kernel, the reproducible arm of scalar-vs-SIMD differential tests
//!   and per-layer auto-tuning.
//!
//! All kernels compute `C = A·B + beta·C` over row-major `f32` buffers with
//! explicit leading dimensions, so sub-matrices can be multiplied in place.
//!
//! Weights reused across runs can be packed once into [`PackedWeights`] and
//! multiplied with [`gemm_prepacked_a`] / [`gemm_prepacked_b`], removing all
//! weight-packing work (and allocation) from the steady-state run loop.
//!
//! [`im2col`] lowers a convolution input into the matrix consumed by GEMM
//! convolution.
//!
//! # Examples
//!
//! ```
//! use orpheus_gemm::{gemm, GemmKernel};
//!
//! // 2x2 identity times an arbitrary matrix.
//! let a = [1.0, 0.0, 0.0, 1.0];
//! let b = [5.0, 6.0, 7.0, 8.0];
//! let mut c = [0.0; 4];
//! gemm(GemmKernel::Packed, 2, 2, 2, &a, 2, &b, 2, &mut c, 2, 0.0);
//! assert_eq!(c, b);
//! ```

// `deny` instead of `forbid` so the one sanctioned unsafe island below can
// opt back in; every other crate in the workspace keeps `forbid(unsafe_code)`.
#![deny(unsafe_code)]

mod driver;
mod im2col;
mod kernels;
mod packed;
// The only module in the workspace allowed to use `unsafe`: the
// `std::arch` SIMD micro-kernels, with `deny(unsafe_op_in_unsafe_fn)` and
// written Safety contracts inside.
#[allow(unsafe_code)]
mod simd;

pub use driver::{gemm, gemm_parallel, GemmKernel};
pub use im2col::{im2col, Im2colParams};
pub use packed::{
    gemm_prepacked_a, gemm_prepacked_a_images, gemm_prepacked_b, PackedWeights, PanelLayout,
    PanelLoader,
};
pub use simd::{
    active_is_simd, active_kernel, dispatch_name, scalar_kernel, simd_available, MicroKernel,
};

/// Floating-point operations performed by an `m x n x k` GEMM
/// (one multiply and one add per inner iteration).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_counts_mul_and_add() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
