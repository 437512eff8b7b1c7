//! Scalar-vs-SIMD differential parity: the runtime-dispatched `Packed`
//! kernel must agree with its pinned-scalar twin on every shape class the
//! model zoo produces — ragged tiles, strided C, prepacked operands.
//!
//! # Tolerance contract
//!
//! The AVX2 and AVX-512 micro-kernels fuse multiply-add (`vfmadd231ps`), so
//! each `k`-step of an output element rounds once where the scalar kernel
//! rounds twice; the per-element order (one `k`-ordered chain per `KC`
//! block) is the same on every tier, so AVX-512 and AVX2 are bit-identical
//! (pinned per tier in `packed::tier_tests`) and both differ from scalar by
//! contraction alone: a length-k dot product with error bounded by ~k·ε.
//! Only the narrow-output dot-product path splits the k-loop across lanes.
//! For the depths exercised here (k ≤ 512) a relative tolerance of `1e-5`
//! (with `1e-6` absolute floor for near-cancellation) holds with wide
//! margin; it is the same bound `orpheus-ops` documents for conv/dense SIMD
//! parity. The scalar tier itself is bit-exact against the pre-SIMD
//! implementation (pinned in `simd::tests`), so this suite is what licenses
//! dispatching `Packed` to SIMD silently.
//!
//! On hosts without a SIMD tier (or under `ORPHEUS_FORCE_SCALAR=1`) both
//! tiers resolve to the scalar micro-kernel and the comparisons are trivially
//! bit-exact — the suite stays green everywhere, it just only *proves*
//! SIMD parity where SIMD runs.

use orpheus_gemm::{gemm, GemmKernel, PackedWeights};

const REL_TOL: f32 = 1e-5;
const ABS_TOL: f32 = 1e-6;

fn matrix(len: usize, seed: u64) -> Vec<f32> {
    // Deterministic pseudo-random values in [-1, 1): sign-varied so
    // cancellation paths are exercised, reproducible so failures replay.
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let tol = ABS_TOL + REL_TOL * w.abs().max(g.abs());
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i} diverges: simd={g} scalar={w} (tol {tol})"
        );
    }
}

fn run(kernel: GemmKernel, m: usize, n: usize, k: usize, seed: u64) -> Vec<f32> {
    let a = matrix(m * k, seed);
    let b = matrix(k * n, seed ^ 0x5eed);
    let mut c = vec![0.0; m * n];
    gemm(kernel, m, n, k, &a, k, &b, n, &mut c, n, 0.0);
    c
}

/// The deterministic shape grid: every combination straddles a different
/// tile boundary of the MR=8 × NR=32 register tile and of the 4 × 16
/// sub-tiles the AVX2 and scalar kernels run it as (full tiles, ragged rows,
/// ragged cols, sub-tile shapes, deep k crossing multiple KC=256 blocks),
/// plus the narrow-N shapes routed to the dot-product path.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for &m in &[1usize, 3, 4, 7, 8, 9, 16, 17] {
        for &n in &[1usize, 7, 15, 16, 17, 31, 32, 33, 64] {
            for &k in &[1usize, 2, 64, 255, 256, 300, 512] {
                shapes.push((m, n, k));
            }
        }
    }
    shapes
}

#[test]
fn packed_matches_packed_scalar_on_the_shape_grid() {
    for (m, n, k) in shape_grid() {
        let seed = (m * 1_000_003 + n * 1_009 + k) as u64;
        let simd = run(GemmKernel::Packed, m, n, k, seed);
        let scalar = run(GemmKernel::PackedScalar, m, n, k, seed);
        assert_close(&simd, &scalar, &format!("gemm {m}x{n}x{k}"));
    }
}

#[test]
fn packed_matches_scalar_with_strided_c_and_beta() {
    // C wider than n (ldc > n) with beta=1 accumulation: the writeback path
    // must respect the stride and the prior contents under both tiers.
    let (m, n, k, ldc) = (9, 21, 130, 29);
    let a = matrix(m * k, 42);
    let b = matrix(k * n, 43);
    let init = matrix(m * ldc, 44);
    let mut simd = init.clone();
    let mut scalar = init.clone();
    gemm(
        GemmKernel::Packed,
        m,
        n,
        k,
        &a,
        k,
        &b,
        n,
        &mut simd,
        ldc,
        1.0,
    );
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
        ldc,
        1.0,
    );
    // Untouched tail columns must be bit-identical to the initial contents.
    for row in 0..m {
        assert_eq!(
            &simd[row * ldc + n..(row + 1) * ldc],
            &init[row * ldc + n..(row + 1) * ldc],
            "simd kernel wrote past n into the C stride"
        );
    }
    assert_close(&simd, &scalar, "strided-C beta=1 gemm");
}

#[test]
fn prepacked_a_parity_across_tiers() {
    // The conv path: A (weights) prepacked at load, B streamed per run.
    for (m, n, k) in [
        (4, 16, 64),
        (8, 32, 64),
        (5, 17, 300),
        (13, 9, 256),
        (1, 33, 511),
    ] {
        let a = matrix(m * k, 7);
        let b = matrix(k * n, 8);
        let pw = PackedWeights::pack_a(&a, m, k, k);
        let mut simd = vec![0.0; m * n];
        let mut scalar = vec![0.0; m * n];
        orpheus_gemm::gemm_prepacked_a(GemmKernel::Packed, &pw, n, &b, n, &mut simd, n, 0.0);
        orpheus_gemm::gemm_prepacked_a(
            GemmKernel::PackedScalar,
            &pw,
            n,
            &b,
            n,
            &mut scalar,
            n,
            0.0,
        );
        assert_close(&simd, &scalar, &format!("prepacked-A {m}x{n}x{k}"));
        // The prepacked scalar path is bit-identical to the unpacked scalar
        // path wherever both take the tile kernels — prepacking only changes
        // *when* panels are packed, never the arithmetic. Narrow outputs
        // (n < 16) are the documented exception: the unpacked driver routes
        // them to the dot-product path, whose summation grouping differs,
        // while prepacked panels always run the tile kernels.
        let mut unpacked = vec![0.0; m * n];
        gemm(
            GemmKernel::PackedScalar,
            m,
            n,
            k,
            &a,
            k,
            &b,
            n,
            &mut unpacked,
            n,
            0.0,
        );
        if n >= 16 {
            assert_eq!(
                scalar, unpacked,
                "prepacked-A scalar diverges bitwise from unpacked scalar at {m}x{n}x{k}"
            );
        } else {
            assert_close(
                &scalar,
                &unpacked,
                &format!("prepacked-A small-n {m}x{n}x{k}"),
            );
        }
    }
}

#[test]
fn prepacked_b_parity_across_tiers() {
    // The dense path: Wᵀ prepacked at load (w is [n, k] row-major), the
    // activation matrix streamed per run.
    for (m, n, k) in [(1, 10, 64), (6, 32, 300), (9, 17, 256)] {
        let x = matrix(m * k, 17);
        let w = matrix(n * k, 18);
        let pw = PackedWeights::pack_b_transposed(&w, n, k);
        let mut simd = vec![0.0; m * n];
        let mut scalar = vec![0.0; m * n];
        orpheus_gemm::gemm_prepacked_b(GemmKernel::Packed, m, &x, k, &pw, &mut simd, n, 0.0);
        orpheus_gemm::gemm_prepacked_b(
            GemmKernel::PackedScalar,
            m,
            &x,
            k,
            &pw,
            &mut scalar,
            n,
            0.0,
        );
        assert_close(&simd, &scalar, &format!("prepacked-B {m}x{n}x{k}"));
    }
}

/// One stencil problem on both kernels: `taps` offsets scattered over a
/// `src` whose rows are `row_step` apart (wider than `ow`, so a kernel that
/// confuses the two strides reads the wrong rows).
fn stencil_case(taps: usize, ow: usize, clamp: (f32, f32)) {
    let (oh, row_step) = (6, ow + 11);
    let offsets: Vec<usize> = (0..taps).map(|t| (t * 7) % (2 * row_step + 5)).collect();
    let weights = matrix(taps, 0x57e4 + taps as u64);
    let furthest = (oh - 1) * row_step + offsets.iter().max().unwrap() + ow;
    let src = matrix(furthest, (taps * 131 + ow) as u64);
    let run = |mk: &dyn orpheus_gemm::MicroKernel| {
        // NaN-filled: every output must be written, none skipped.
        let mut out = vec![f32::NAN; oh * ow];
        mk.stencil_plane(
            &src, row_step, &offsets, &weights, 0.125, clamp, &mut out, ow,
        );
        out
    };
    let simd = run(orpheus_gemm::active_kernel());
    let scalar = run(orpheus_gemm::scalar_kernel());
    let what = format!("stencil taps={taps} ow={ow} clamp={clamp:?}");
    for (i, (&g, &w)) in simd.iter().zip(&scalar).enumerate() {
        assert!(
            (g - w).abs() <= 1e-6 * w.abs().max(1.0),
            "{what}: output {i} diverges: simd={g} scalar={w}"
        );
        assert!(
            clamp.0 <= g && g <= clamp.1,
            "{what}: {g} escapes the clamp"
        );
    }
}

#[test]
fn stencil_plane_matches_scalar_across_taps_widths_and_clamps() {
    // 1..=49 taps (the depthwise cap), output widths through both the 8-
    // and 16-lane boundaries plus a many-vector row, clamp on and off.
    for taps in 1..=49 {
        for ow in (1..=17).chain([64]) {
            stencil_case(taps, ow, (f32::NEG_INFINITY, f32::INFINITY));
            stencil_case(taps, ow, (-0.5, 0.75));
        }
    }
}

#[test]
fn stencil_plane_writes_only_the_rows_it_was_given() {
    // `out` is the middle of a larger buffer and `ow = 5` ends every row in
    // a masked vector: a raw-pointer store past a row, or past the slice,
    // would land in the sentinel rows around it.
    let (ow, row_step) = (5, 9);
    let src = matrix(3 * row_step + 2 + ow, 9);
    let mut out = vec![-7.0f32; 6 * ow];
    orpheus_gemm::active_kernel().stencil_plane(
        &src,
        row_step,
        &[0, 2],
        &[0.5, -0.25],
        0.0,
        (f32::NEG_INFINITY, f32::INFINITY),
        &mut out[ow..5 * ow],
        ow,
    );
    assert!(out[..ow].iter().chain(&out[5 * ow..]).all(|&v| v == -7.0));
    assert!(out[ow..5 * ow].iter().all(|&v| v != -7.0));
}

#[test]
#[should_panic(expected = "stencil src too short")]
fn stencil_plane_rejects_a_short_src_before_touching_it() {
    // Three rows of 8 outputs, furthest read at 2*10 + 3 + 8 = 31: a
    // 30-element `src` must be refused by the safe wrapper, on the SIMD
    // kernel as on the scalar one.
    let src = vec![0.0f32; 30];
    let mut out = vec![0.0f32; 24];
    orpheus_gemm::active_kernel().stencil_plane(
        &src,
        10,
        &[0, 3],
        &[1.0, 1.0],
        0.0,
        (0.0, 6.0),
        &mut out,
        8,
    );
}

/// The fastest tier this host's CPU features allow, by the test's own
/// detection: AVX-512 needs AVX-512F on top of AVX2 and FMA.
fn best_host_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        if avx2 && is_x86_feature_detected!("avx512f") {
            return "avx512+fma";
        }
        if avx2 {
            return "avx2+fma";
        }
    }
    "scalar"
}

#[test]
fn dispatch_report_is_consistent() {
    // Whatever the host, the dispatch introspection must be coherent: SIMD
    // active implies SIMD available, and dispatch picked the best tier.
    if orpheus_gemm::active_is_simd() {
        assert!(orpheus_gemm::simd_available());
        assert_eq!(orpheus_gemm::dispatch_name(), best_host_tier());
    } else {
        assert_eq!(orpheus_gemm::dispatch_name(), "scalar");
    }
    assert_eq!(orpheus_gemm::scalar_kernel().name(), "scalar");
}
