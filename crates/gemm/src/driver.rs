//! Kernel selection and the parallel GEMM driver.

use std::fmt;

use orpheus_threads::ThreadPool;

use crate::kernels::{gemm_blocked, gemm_naive};
use crate::packed::gemm_packed;
use crate::simd::{active_kernel, scalar_kernel, MicroKernel};

/// Which GEMM implementation tier to run.
///
/// The tiers form the `gemm_kernels` ablation axis; see the crate docs for
/// how each maps onto a framework personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmKernel {
    /// Textbook triple loop.
    Naive,
    /// Cache-blocked, autovectorized row updates.
    Blocked,
    /// Packed panels with the runtime-dispatched micro-kernel (AVX-512 or
    /// AVX2/FMA where available, scalar otherwise — fastest).
    #[default]
    Packed,
    /// Packed panels pinned to the scalar micro-kernel regardless of CPU
    /// features: the reproducible reference arm for scalar-vs-SIMD
    /// differential tests and per-layer auto-tuning.
    PackedScalar,
}

impl GemmKernel {
    /// All kernel tiers, for sweeps.
    pub const ALL: [GemmKernel; 4] = [
        GemmKernel::Naive,
        GemmKernel::Blocked,
        GemmKernel::Packed,
        GemmKernel::PackedScalar,
    ];
}

impl fmt::Display for GemmKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GemmKernel::Naive => "naive",
            GemmKernel::Blocked => "blocked",
            GemmKernel::Packed => "packed",
            GemmKernel::PackedScalar => "packed-scalar",
        };
        f.write_str(name)
    }
}

/// Resolves a kernel tier to the micro-kernel it runs: `Packed` follows the
/// runtime dispatch, `PackedScalar` pins the scalar path.
pub(crate) fn micro_kernel_for(kernel: GemmKernel) -> &'static dyn MicroKernel {
    match kernel {
        GemmKernel::PackedScalar => scalar_kernel(),
        _ => active_kernel(),
    }
}

/// Bumps the `gemm.kernel.<name>` dispatch counter for one GEMM call, where
/// `name` is the naive or blocked tier's or the micro-kernel's
/// ([`MicroKernel::name`]). Inert (one atomic load) while the recorder is
/// off, so the zero-steady-state-alloc invariant holds.
pub(crate) fn count_dispatch(name: &str) {
    if orpheus_observe::enabled() {
        orpheus_observe::counter_add(&format!("gemm.kernel.{name}"), 1);
    }
}

/// Single-threaded GEMM: `C = A·B + beta·C`.
///
/// `A` is `m x k` with leading dimension `lda`, `B` is `k x n` with leading
/// dimension `ldb`, `C` is `m x n` with leading dimension `ldc`; all buffers
/// are row-major.
///
/// # Panics
///
/// Panics if any buffer is too small for its shape and leading dimension.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    count_dispatch(match kernel {
        GemmKernel::Naive => "naive",
        GemmKernel::Blocked => "blocked",
        GemmKernel::Packed | GemmKernel::PackedScalar => micro_kernel_for(kernel).name(),
    });
    // Narrow outputs (GEMV and late conv stages) defeat both the blocked
    // row update and the packed register tile; route them to the
    // dot-product kernel. The naive tier stays pure as the reference, and
    // the Blocked tier keeps the scalar dot so its behaviour class is
    // unchanged by SIMD dispatch.
    if n < crate::packed::SMALL_N && kernel != GemmKernel::Naive {
        let mk = match kernel {
            GemmKernel::Packed => active_kernel(),
            _ => scalar_kernel(),
        };
        crate::packed::gemm_small_n(mk, m, n, k, a, lda, b, ldb, c, ldc, beta);
        return;
    }
    match kernel {
        GemmKernel::Naive => gemm_naive(m, n, k, a, lda, b, ldb, c, ldc, beta),
        GemmKernel::Blocked => gemm_blocked(m, n, k, a, lda, b, ldb, c, ldc, beta),
        GemmKernel::Packed | GemmKernel::PackedScalar => gemm_packed(
            micro_kernel_for(kernel),
            m,
            n,
            k,
            a,
            lda,
            b,
            ldb,
            c,
            ldc,
            beta,
        ),
    }
}

/// Parallel GEMM: splits the rows of `C` across the pool's threads.
///
/// Each worker runs the selected single-threaded kernel on its row band, the
/// OpenMP-style decomposition the original framework uses. With a one-thread
/// pool this is identical to [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel(
    kernel: GemmKernel,
    pool: &ThreadPool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    // Parallel banding needs C to be addressable as m whole rows of ldc
    // elements; packed operator outputs (ldc == n) always are. Anything else
    // falls back to the serial kernel.
    if pool.num_threads() == 1 || m == 1 || c.len() < m * ldc {
        gemm(kernel, m, n, k, a, lda, b, ldb, c, ldc, beta);
        return;
    }
    // Split C (and the matching rows of A) into disjoint whole-row bands, one
    // serial GEMM per band.
    let min_rows = m.div_ceil(pool.num_threads()).max(1);
    pool.parallel_for_rows(&mut c[..m * ldc], ldc, min_rows, |row0, band| {
        let rows = band.len() / ldc;
        gemm(
            kernel,
            rows,
            n,
            k,
            &a[row0 * lda..],
            lda,
            b,
            ldb,
            band,
            ldc,
            beta,
        );
    });
}

#[allow(clippy::too_many_arguments)]
fn check_dims(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &[f32],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= k && ldb >= n && ldc >= n, "leading dims too small");
    if k > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "A buffer too small");
        assert!(b.len() >= (k - 1) * ldb + n, "B buffer too small");
    }
    assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 13 % 7) as f32) * 0.25 - 0.5).collect()
    }

    #[test]
    fn all_kernels_agree() {
        let (m, n, k) = (23, 31, 41);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut reference = vec![0.0; m * n];
        gemm(
            GemmKernel::Naive,
            m,
            n,
            k,
            &a,
            k,
            &b,
            n,
            &mut reference,
            n,
            0.0,
        );
        for kernel in [
            GemmKernel::Blocked,
            GemmKernel::Packed,
            GemmKernel::PackedScalar,
        ] {
            let mut c = vec![0.0; m * n];
            gemm(kernel, m, n, k, &a, k, &b, n, &mut c, n, 0.0);
            for (x, y) in reference.iter().zip(&c) {
                assert!((x - y).abs() < 1e-3, "{kernel}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (m, n, k) = (37, 19, 29);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut serial = vec![1.0; m * n];
        gemm(
            GemmKernel::Packed,
            m,
            n,
            k,
            &a,
            k,
            &b,
            n,
            &mut serial,
            n,
            1.0,
        );
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads).unwrap();
            let mut par = vec![1.0; m * n];
            gemm_parallel(
                GemmKernel::Packed,
                &pool,
                m,
                n,
                k,
                &a,
                k,
                &b,
                n,
                &mut par,
                n,
                1.0,
            );
            for (x, y) in serial.iter().zip(&par) {
                assert!((x - y).abs() < 1e-4, "threads={threads}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn parallel_more_threads_than_rows() {
        let pool = ThreadPool::new(16).unwrap();
        let a = seq(2 * 3);
        let b = seq(3 * 4);
        let mut serial = vec![0.0; 8];
        let mut par = vec![0.0; 8];
        gemm(
            GemmKernel::Blocked,
            2,
            4,
            3,
            &a,
            3,
            &b,
            4,
            &mut serial,
            4,
            0.0,
        );
        gemm_parallel(
            GemmKernel::Blocked,
            &pool,
            2,
            4,
            3,
            &a,
            3,
            &b,
            4,
            &mut par,
            4,
            0.0,
        );
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic(expected = "A buffer too small")]
    fn undersized_a_panics() {
        let mut c = [0.0; 4];
        gemm(
            GemmKernel::Naive,
            2,
            2,
            2,
            &[0.0; 3],
            2,
            &[0.0; 4],
            2,
            &mut c,
            2,
            0.0,
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(GemmKernel::Packed.to_string(), "packed");
        assert_eq!(GemmKernel::PackedScalar.to_string(), "packed-scalar");
        assert_eq!(GemmKernel::ALL.len(), 4);
    }

    #[test]
    fn default_is_packed() {
        assert_eq!(GemmKernel::default(), GemmKernel::Packed);
    }

    /// `PackedScalar` must agree with `Packed` to within FMA-reordering
    /// tolerance on both the tiled and the narrow-output paths.
    #[test]
    fn packed_scalar_tracks_packed() {
        for &(m, n, k) in &[(23usize, 31usize, 41usize), (9, 4, 300)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut simd = vec![0.0; m * n];
            let mut scalar = vec![0.0; m * n];
            gemm(GemmKernel::Packed, m, n, k, &a, k, &b, n, &mut simd, n, 0.0);
            gemm(
                GemmKernel::PackedScalar,
                m,
                n,
                k,
                &a,
                k,
                &b,
                n,
                &mut scalar,
                n,
                0.0,
            );
            for (x, y) in simd.iter().zip(&scalar) {
                assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }
}
