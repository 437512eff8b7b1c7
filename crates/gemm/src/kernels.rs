//! Naive and cache-blocked GEMM kernels.
//!
//! Both kernels share the contract documented on [`crate::gemm`]: row-major
//! buffers, explicit leading dimensions, `C = A·B + beta·C`.

/// Textbook `i-j-p` triple loop.
///
/// Deliberately kept as the unoptimized baseline: the inner loop strides
/// through `B` column-wise, defeating the cache. This is the GEMM tier the
/// `pytorch-sim` framework personality runs on.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_naive(
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
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * lda + p] * b[p * ldb + j];
            }
            // BLAS contract: `C` is not read when `beta == 0`, so stale or
            // NaN contents of the output cannot leak into the result.
            let slot = &mut c[i * ldc + j];
            *slot = if beta == 0.0 { acc } else { acc + beta * *slot };
        }
    }
}

/// Cache-blocked `i-p-j` kernel.
///
/// Tiles the `m` and `k` loops so the active slices of `A` and `B` stay in
/// cache, and iterates `j` innermost so the compiler vectorizes the row
/// update `c[i, j..] += a[i, p] * b[p, j..]`.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_blocked(
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
    const MC: usize = 64;
    const KC: usize = 256;

    scale_c(m, n, c, ldc, beta);
    for i0 in (0..m).step_by(MC) {
        let i_end = (i0 + MC).min(m);
        for p0 in (0..k).step_by(KC) {
            let p_end = (p0 + KC).min(k);
            for i in i0..i_end {
                let c_row = &mut c[i * ldc..i * ldc + n];
                for p in p0..p_end {
                    let aip = a[i * lda + p];
                    if aip == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * ldb..p * ldb + n];
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += aip * bj;
                    }
                }
            }
        }
    }
}

/// Applies the `beta` scaling of the output ahead of accumulation.
pub(crate) fn scale_c(m: usize, n: usize, c: &mut [f32], ldc: usize, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..m {
        let row = &mut c[i * ldc..i * ldc + n];
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for x in row {
                *x *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5 - 1.0).collect()
    }

    #[test]
    fn naive_matches_hand_computed() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_naive(2, 2, 2, &a, 2, &b, 2, &mut c, 2, 0.0);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (65, 17, 300), (4, 260, 2)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c1 = vec![0.25; m * n];
            let mut c2 = c1.clone();
            gemm_naive(m, n, k, &a, k, &b, n, &mut c1, n, 1.0);
            gemm_blocked(m, n, k, &a, k, &b, n, &mut c2, n, 1.0);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = [1.0];
        let b = [2.0];
        let mut c = [f32::NAN];
        gemm_blocked(1, 1, 1, &a, 1, &b, 1, &mut c, 1, 0.0);
        assert_eq!(c[0], 2.0);
    }

    #[test]
    fn beta_one_accumulates() {
        let a = [1.0];
        let b = [2.0];
        let mut c = [10.0];
        gemm_naive(1, 1, 1, &a, 1, &b, 1, &mut c, 1, 1.0);
        assert_eq!(c[0], 12.0);
    }

    #[test]
    fn leading_dimensions_address_submatrices() {
        // A is the top-left 2x2 of a 2x3 buffer; C is written into a 2x4 buffer.
        let a = [1.0, 0.0, 99.0, 0.0, 1.0, 99.0];
        let b = [3.0, 4.0, 5.0, 6.0];
        let mut c = vec![-1.0; 8];
        gemm_blocked(2, 2, 2, &a, 3, &b, 2, &mut c, 4, 0.0);
        assert_eq!(&c[0..2], &[3.0, 4.0]);
        assert_eq!(&c[4..6], &[5.0, 6.0]);
        assert_eq!(c[2], -1.0, "padding column untouched");
    }

    #[test]
    fn scale_c_variants() {
        let mut c = vec![2.0; 4];
        scale_c(2, 2, &mut c, 2, 1.0);
        assert_eq!(c, vec![2.0; 4]);
        scale_c(2, 2, &mut c, 2, 0.5);
        assert_eq!(c, vec![1.0; 4]);
        scale_c(2, 2, &mut c, 2, 0.0);
        assert_eq!(c, vec![0.0; 4]);
    }
}
