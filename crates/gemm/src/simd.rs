//! The SIMD micro-kernel island: explicit AVX-512 and AVX2/FMA kernels with
//! runtime dispatch, behind the [`MicroKernel`] trait.
//!
//! This module is the **only** place in the workspace allowed to use
//! `unsafe` (the crate root grants it `#[allow(unsafe_code)]`; every other
//! crate keeps `#![forbid(unsafe_code)]`). Inside, `unsafe fn` bodies must
//! wrap every unsafe operation in an explicit `unsafe {}` block
//! (`deny(unsafe_op_in_unsafe_fn)`) with a written Safety contract.
//!
//! # Tile geometry
//!
//! There is one packed-panel format, `MR x NR = 8 x 32` (the `packed`
//! module), shared by every kernel, so weights are packed once whatever the
//! ISA. The AVX-512 kernel holds the whole tile in registers: 8 rows × two
//! `__m512` = 16 of the 32 `zmm` accumulators. The AVX2 and scalar kernels
//! keep a `4 x 16` register tile (8 `ymm` accumulators on AVX2) and run each
//! `8 x 32` tile as four `4 x 16` sub-tiles, reading `A` at stride `MR` and
//! `B` at stride `NR`; a ragged edge tile skips the sub-tiles that lie wholly
//! outside its live `mr x nr` block.
//!
//! # Dispatch rules
//!
//! [`active_kernel`] picks the micro-kernel once per process:
//!
//! 1. If the `ORPHEUS_FORCE_SCALAR` environment variable is set to `1`,
//!    `true`, or `yes` (read once, at first dispatch), the scalar kernel is
//!    used regardless of CPU features.
//! 2. Otherwise, if the CPU reports AVX-512F, AVX2 **and** FMA at runtime
//!    (`is_x86_feature_detected!`), the AVX-512 kernel is used.
//! 3. Otherwise, if it reports AVX2 **and** FMA, the AVX2 kernel is used.
//! 4. Otherwise — non-x86 targets or older x86 — the scalar kernel is used.
//!
//! The scalar kernel is always available and is bit-identical to the
//! pre-SIMD packed kernel: callers who need reproducible-to-the-bit results
//! (differential tests, the `GemmKernel::PackedScalar` tier) request it
//! explicitly via [`scalar_kernel`].
//!
//! # Tolerance contract
//!
//! Every tier computes each element of `C` as one `k`-ordered chain per `KC`
//! block, starting from zero, then adds the chain to `C`; neither the tile
//! width nor the sub-tiling changes that order. The scalar chain multiplies
//! and adds (two roundings per step); the AVX2 and AVX-512 chains are
//! `vfmadd231ps` (one rounding), so AVX-512 is **bit-identical** to AVX2, and
//! both differ from scalar by FMA contraction alone, bounded by ~`k · ε`
//! relative, which the parity tests pin at `1e-5` relative tolerance.
//! [`MicroKernel::dot`] is the exception: its lanes split the `k`-loop, so
//! the narrow-output path's summation order differs per ISA within the same
//! bound.

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::OnceLock;

use crate::packed::{MR, NR};

/// An `MR x NR` register-tiled GEMM micro-kernel, the dot-product core
/// used by the narrow-output path, and the register-accumulated stencil the
/// depthwise convolution runs on.
///
/// Implementations are stateless; [`active_kernel`] and [`scalar_kernel`]
/// hand out `'static` references. Panel layouts are those produced by the
/// packing routines in the `packed` module: `A` panels are `[p][r]` with
/// `MR` rows interleaved per `k`-step, `B` panels are `[p][c]` with `NR`
/// columns interleaved per `k`-step, both zero-padded on ragged tiles.
pub trait MicroKernel: Send + Sync {
    /// Short ISA name for dispatch reporting (`"scalar"`, `"avx2+fma"`,
    /// `"avx512+fma"`).
    fn name(&self) -> &'static str;

    /// `C[ci..ci+MR][cj..cj+NR] += A_panel · B_panel` over `kc` steps.
    ///
    /// # Panics
    ///
    /// Panics if the panels are shorter than `kc·MR` / `kc·NR` or if `c`
    /// does not cover the full `MR x NR` tile at `(ci, cj)`.
    #[allow(clippy::too_many_arguments)]
    fn tile_full(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
    );

    /// Ragged-edge tile: same math as [`MicroKernel::tile_full`] but only
    /// the top-left `mr x nr` block of the register tile is written back.
    #[allow(clippy::too_many_arguments)]
    fn tile_edge(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
        mr: usize,
        nr: usize,
    );

    /// Dot product of two equal-length vectors, the core of the
    /// narrow-output (`n < SMALL_N`) GEMM path.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// Border-free stencil over one plane, `oh = out.len() / ow` rows of
    /// `ow` outputs:
    ///
    /// `out[y·ow + x] = clamp(bias + Σ_t weights[t] · src[y·row_step + offsets[t] + x], lo, hi)`
    ///
    /// Every tap is accumulated in registers and each output is stored
    /// once. `src` is the caller's zero-bordered plane, so no tap needs a
    /// bounds decision; pass `(f32::NEG_INFINITY, f32::INFINITY)` for no
    /// clamp (NaN propagates either way).
    ///
    /// # Panics
    ///
    /// Panics if `ow == 0`, `out.len()` is not a multiple of `ow`,
    /// `offsets` and `weights` differ in length, or `src` is shorter than
    /// the furthest read, `(oh - 1)·row_step + max(offsets) + ow` (nothing
    /// is read when there is no output row or no tap).
    #[allow(clippy::too_many_arguments)]
    fn stencil_plane(
        &self,
        src: &[f32],
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        clamp: (f32, f32),
        out: &mut [f32],
        ow: usize,
    );
}

/// The bounds contract of [`MicroKernel::stencil_plane`], asserted by every
/// implementation before it touches `src`: the AVX2 body reads through raw
/// pointers and relies on exactly this.
fn assert_stencil_bounds(
    src: &[f32],
    row_step: usize,
    offsets: &[usize],
    weights: &[f32],
    out: &[f32],
    ow: usize,
) {
    assert!(ow > 0, "stencil output width must be positive");
    assert!(
        out.len().is_multiple_of(ow),
        "stencil output is not whole rows"
    );
    assert_eq!(offsets.len(), weights.len(), "one weight per tap offset");
    let oh = out.len() / ow;
    // Nothing is read without an output row or without a tap.
    let (Some(last_row), Some(&off)) = (oh.checked_sub(1), offsets.iter().max()) else {
        return;
    };
    let furthest = last_row
        .checked_mul(row_step)
        .and_then(|start| start.checked_add(off)?.checked_add(ow));
    assert!(
        furthest.is_some_and(|end| end <= src.len()),
        "stencil src too short for its furthest tap"
    );
}

/// Rows of the register tile the AVX2 and scalar kernels hold.
const SUB_MR: usize = 4;
/// Columns of that register tile: two 8-lane AVX2 vectors.
const SUB_NR: usize = 16;
const _: () = assert!(MR.is_multiple_of(SUB_MR) && NR.is_multiple_of(SUB_NR));

/// Origins `(r0, c0)` within the `MR x NR` tile of the `SUB_MR x SUB_NR`
/// sub-tiles that overlap its live top-left `mr x nr` block.
fn sub_tiles(mr: usize, nr: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..mr)
        .step_by(SUB_MR)
        .flat_map(move |r0| (0..nr).step_by(SUB_NR).map(move |c0| (r0, c0)))
}

/// Portable scalar micro-kernel: fixed-size local accumulator arrays the
/// compiler autovectorizes. Each element's arithmetic is byte-for-byte the
/// pre-SIMD packed kernel's, kept as the always-available fallback and the
/// reproducibility reference.
#[derive(Debug)]
pub(crate) struct ScalarKernel;

impl MicroKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn tile_full(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
    ) {
        self.tile_edge(a_panel, b_panel, kc, c, ldc, ci, cj, MR, NR);
    }

    fn tile_edge(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
        mr: usize,
        nr: usize,
    ) {
        for (r0, c0) in sub_tiles(mr, nr) {
            let mut acc = [[0.0f32; SUB_NR]; SUB_MR];
            for p in 0..kc {
                let a_vals = &a_panel[p * MR + r0..][..SUB_MR];
                let b_vals = &b_panel[p * NR + c0..][..SUB_NR];
                for (row, &ar) in acc.iter_mut().zip(a_vals) {
                    for (x, &bv) in row.iter_mut().zip(b_vals) {
                        *x += ar * bv;
                    }
                }
            }
            let cols = SUB_NR.min(nr - c0);
            for (r, row) in acc.iter().enumerate().take(mr - r0) {
                let at = (ci + r0 + r) * ldc + cj + c0;
                for (o, &x) in c[at..at + cols].iter_mut().zip(row) {
                    *o += x;
                }
            }
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let k = a.len().min(b.len());
        // Four independent partial sums so the reduction vectorizes; the
        // summation order (acc0+acc1+acc2+acc3+tail) is part of the
        // bit-identity contract with the pre-SIMD small-n kernel.
        let mut acc = [0.0f32; 4];
        let chunks = k / 4;
        for q in 0..chunks {
            for l in 0..4 {
                acc[l] += a[q * 4 + l] * b[q * 4 + l];
            }
        }
        let mut tail = 0.0f32;
        for q in chunks * 4..k {
            tail += a[q] * b[q];
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    fn stencil_plane(
        &self,
        src: &[f32],
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        (lo, hi): (f32, f32),
        out: &mut [f32],
        ow: usize,
    ) {
        // One fixed-size lane array per output chunk so the tap loop
        // autovectorizes with the accumulator held in registers.
        const LANES: usize = 8;
        assert_stencil_bounds(src, row_step, offsets, weights, out, ow);
        // Comparisons, not `f32::max`/`min`: NaN stays NaN.
        let clamp = |v: f32| {
            if v < lo {
                lo
            } else if v > hi {
                hi
            } else {
                v
            }
        };
        for (y, out_row) in out.chunks_exact_mut(ow).enumerate() {
            let rows = &src[y * row_step..];
            let mut chunks = out_row.chunks_exact_mut(LANES);
            let mut x = 0;
            for chunk in &mut chunks {
                let mut acc = [bias; LANES];
                for (&off, &w) in offsets.iter().zip(weights) {
                    let s = &rows[off + x..off + x + LANES];
                    for (a, &v) in acc.iter_mut().zip(s) {
                        *a += w * v;
                    }
                }
                for (o, &a) in chunk.iter_mut().zip(&acc) {
                    *o = clamp(a);
                }
                x += LANES;
            }
            for (i, o) in chunks.into_remainder().iter_mut().enumerate() {
                let mut acc = bias;
                for (&off, &w) in offsets.iter().zip(weights) {
                    acc += w * rows[off + x + i];
                }
                *o = clamp(acc);
            }
        }
    }
}

/// AVX2 + FMA micro-kernel: a `SUB_MR x SUB_NR` register tile, each row two
/// `__m256` accumulators updated with `vfmadd231ps` per `k`-step, run once
/// per sub-tile of the `MR x NR` tile.
///
/// Not constructible outside this module: the only `'static` instance is
/// handed out through [`SIMD_TIERS`] after runtime feature detection, which
/// is what makes the `unsafe` `#[target_feature]` calls in the trait impl
/// sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub(crate) struct Avx2Kernel {
    _only_via_dispatch: (),
}

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2+fma"
    }

    fn tile_full(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
    ) {
        self.tile_edge(a_panel, b_panel, kc, c, ldc, ci, cj, MR, NR);
    }

    fn tile_edge(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
        mr: usize,
        nr: usize,
    ) {
        assert!(a_panel.len() >= kc * MR, "A panel too short");
        assert!(b_panel.len() >= kc * NR, "B panel too short");
        assert!(mr <= MR && nr <= NR, "edge tile exceeds register tile");
        for (r0, c0) in sub_tiles(mr, nr) {
            // Sub-tile panels start at its first row / column and keep the
            // tile's strides: `(kc - 1) * MR + SUB_MR <= kc * MR - r0` and
            // likewise for B, because `r0 + SUB_MR <= MR`, `c0 + SUB_NR <= NR`.
            let (a, b) = (&a_panel[r0..], &b_panel[c0..]);
            let (ci, cj) = (ci + r0, cj + c0);
            if r0 + SUB_MR <= mr && c0 + SUB_NR <= nr {
                assert!(
                    ldc >= cj + SUB_NR && c.len() >= (ci + SUB_MR - 1) * ldc + cj + SUB_NR,
                    "C does not cover the register tile"
                );
                // SAFETY: `Avx2Kernel` instances are only handed out when
                // `is_x86_feature_detected!` reports AVX2 and FMA (see
                // `SIMD_TIERS`); the panel and C asserts above establish the
                // bounds contract of `avx2::tile_full`.
                unsafe { avx2::tile_full(a, b, kc, c, ldc, ci, cj) }
            } else {
                let (rows, cols) = (SUB_MR.min(mr - r0), SUB_NR.min(nr - c0));
                // SAFETY: AVX2+FMA availability as above; the panel-length
                // asserts establish the bounds contract. The `c` write-back
                // inside is bounds-checked safe code.
                unsafe { avx2::tile_edge(a, b, kc, c, ldc, ci, cj, rows, cols) }
            }
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let k = a.len().min(b.len());
        // SAFETY: AVX2+FMA availability as in `tile_edge`; `k` is clamped to
        // both slice lengths, which is `avx2::dot`'s bounds contract.
        unsafe { avx2::dot(&a[..k], &b[..k]) }
    }

    fn stencil_plane(
        &self,
        src: &[f32],
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        clamp: (f32, f32),
        out: &mut [f32],
        ow: usize,
    ) {
        assert_stencil_bounds(src, row_step, offsets, weights, out, ow);
        // SAFETY: AVX2+FMA availability as in `tile_edge`;
        // `assert_stencil_bounds` is `avx2::stencil_plane`'s bounds contract.
        unsafe { avx2::stencil_plane(src, row_step, offsets, weights, bias, clamp, out, ow) }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The raw `#[target_feature]` bodies. Callers must guarantee AVX2 and
    //! FMA are available on the running CPU.

    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps, _mm256_min_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    use super::{SUB_MR, SUB_NR};
    use crate::packed::{MR, NR};

    const _: () = assert!(SUB_NR == 16, "a sub-tile row is two 8-lane vectors");

    /// Accumulates one `SUB_MR x SUB_NR` sub-tile in `SUB_MR x 2` vector
    /// registers and adds it to `C`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. `a_panel` must hold at least
    /// `(kc - 1) * MR + SUB_MR` elements (`SUB_MR` rows per `k`-step, `MR`
    /// apart), `b_panel` at least `(kc - 1) * NR + SUB_NR`, and `c` must
    /// cover rows `ci..ci + SUB_MR` at columns `cj..cj + SUB_NR` under stride
    /// `ldc`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_full(
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
    ) {
        // SAFETY: the caller's panel bounds are `accumulate`'s.
        let acc = unsafe { accumulate(a_panel, b_panel, kc) };
        let cp = c.as_mut_ptr();
        for (r, row) in acc.iter().enumerate() {
            // SAFETY: caller guarantees row `ci + r`, cols `cj..cj + SUB_NR`
            // are in bounds (`SUB_NR` == two 8-lane vectors).
            unsafe {
                let out0 = cp.add((ci + r) * ldc + cj);
                let out1 = out0.add(8);
                _mm256_storeu_ps(out0, _mm256_add_ps(_mm256_loadu_ps(out0), row[0]));
                _mm256_storeu_ps(out1, _mm256_add_ps(_mm256_loadu_ps(out1), row[1]));
            }
        }
    }

    /// Ragged sub-tile: accumulates the whole sub-tile (panels are
    /// zero-padded), spills it to a stack buffer, then write-back of the
    /// valid `mr x nr` block is plain bounds-checked code.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA; `a_panel`/`b_panel` must hold at
    /// least `(kc - 1) * MR + SUB_MR` / `(kc - 1) * NR + SUB_NR` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile_edge(
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
        mr: usize,
        nr: usize,
    ) {
        // SAFETY: the caller's panel bounds are `accumulate`'s.
        let acc = unsafe { accumulate(a_panel, b_panel, kc) };
        let mut tmp = [0.0f32; SUB_MR * SUB_NR];
        for (r, row) in acc.iter().enumerate() {
            // SAFETY: `tmp` is exactly `SUB_MR * SUB_NR` elements.
            unsafe {
                _mm256_storeu_ps(tmp.as_mut_ptr().add(r * SUB_NR), row[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(r * SUB_NR + 8), row[1]);
            }
        }
        for r in 0..mr {
            let out = &mut c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + nr];
            for (o, &x) in out.iter_mut().zip(&tmp[r * SUB_NR..r * SUB_NR + nr]) {
                *o += x;
            }
        }
    }

    /// The `k`-loop of one sub-tile: `SUB_MR` rows of `A` at stride `MR`
    /// against `SUB_NR` columns of `B` at stride `NR`, one FMA chain per
    /// element.
    ///
    /// # Safety
    ///
    /// As for [`tile_edge`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn accumulate(a_panel: &[f32], b_panel: &[f32], kc: usize) -> [[__m256; 2]; SUB_MR] {
        let ap = a_panel.as_ptr();
        let bp = b_panel.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); 2]; SUB_MR];
        for p in 0..kc {
            // SAFETY: `p * NR + SUB_NR <= (kc - 1) * NR + SUB_NR` and
            // `p * MR + r < (kc - 1) * MR + SUB_MR`: inside the panels by the
            // caller's contract; loadu has no alignment requirement.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(bp.add(p * NR)),
                    _mm256_loadu_ps(bp.add(p * NR + 8)),
                )
            };
            for (r, row) in acc.iter_mut().enumerate() {
                let av = unsafe { _mm256_set1_ps(*ap.add(p * MR + r)) };
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        acc
    }

    /// 32-lane FMA dot product with a scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA; `a` and `b` must be the same
    /// length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let k = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc: [__m256; 4] = [_mm256_setzero_ps(); 4];
        let chunks = k / 32;
        for q in 0..chunks {
            for (l, lane) in acc.iter_mut().enumerate() {
                // SAFETY: `q * 32 + l * 8 + 8 <= chunks * 32 <= k`.
                unsafe {
                    let av = _mm256_loadu_ps(ap.add(q * 32 + l * 8));
                    let bv = _mm256_loadu_ps(bp.add(q * 32 + l * 8));
                    *lane = _mm256_fmadd_ps(av, bv, *lane);
                }
            }
        }
        let sum = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly 8 elements.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
        let mut total: f32 = lanes.iter().sum();
        for q in chunks * 32..k {
            total += a[q] * b[q];
        }
        total
    }

    /// Output rows the stencil accumulates side by side: one broadcast of a
    /// tap weight feeds this many independent FMA chains.
    const STENCIL_ROWS: usize = 4;

    /// Lane masks for a ragged last vector: the 8 lanes loaded from index
    /// `8 - rem` have their first `rem` lanes set.
    static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The stencil of [`super::MicroKernel::stencil_plane`]: blocks of
    /// `STENCIL_ROWS` output rows by one 8-lane vector, every tap
    /// accumulated in registers, one (masked, on the ragged last vector of a
    /// row) store per output vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `super::assert_stencil_bounds`
    /// must hold for the arguments: `ow > 0`, `out` is `oh` whole rows of
    /// `ow`, `offsets.len() == weights.len()`, and
    /// `(oh - 1) * row_step + max(offsets) + ow <= src.len()`. Under that
    /// contract no lane is read outside `src` or written outside `out`:
    /// full vectors cover columns `x..x + 8` with `x + 8 <= ow`, and the
    /// ragged tail goes through `maskload`/`maskstore`, which do not access
    /// masked-off lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn stencil_plane(
        src: &[f32],
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        (lo, hi): (f32, f32),
        out: &mut [f32],
        ow: usize,
    ) {
        let oh = out.len() / ow;
        let bounds = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut y = 0;
        while y + STENCIL_ROWS <= oh {
            // SAFETY: rows `y..y + STENCIL_ROWS` are below `oh`, so both
            // pointers stay inside their slices and the callee's contract
            // follows from this function's.
            unsafe {
                stencil_rows::<STENCIL_ROWS>(
                    src.as_ptr().add(y * row_step),
                    row_step,
                    offsets,
                    weights,
                    bias,
                    bounds,
                    out.as_mut_ptr().add(y * ow),
                    ow,
                );
            }
            y += STENCIL_ROWS;
        }
        while y < oh {
            // SAFETY: as above, for the single row `y < oh`.
            unsafe {
                stencil_rows::<1>(
                    src.as_ptr().add(y * row_step),
                    row_step,
                    offsets,
                    weights,
                    bias,
                    bounds,
                    out.as_mut_ptr().add(y * ow),
                    ow,
                );
            }
            y += 1;
        }
    }

    /// `R` consecutive output rows of the stencil, `src`/`out` pointing at
    /// the first of them.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. For every `r < R`, tap offset
    /// `off` and column `x < ow`, `src + r * row_step + off + x` must be
    /// readable and `out + r * ow + x` writable; `offsets` and `weights`
    /// must be the same length.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn stencil_rows<const R: usize>(
        src: *const f32,
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        (lo, hi): (__m256, __m256),
        out: *mut f32,
        ow: usize,
    ) {
        let seed = _mm256_set1_ps(bias);
        // `max(lo, acc)` / `min(hi, ..)` in this operand order return the
        // accumulator when it is NaN, so NaN propagates like the scalar
        // kernel's comparisons.
        let clamp = |acc: __m256| _mm256_min_ps(hi, _mm256_max_ps(lo, acc));
        let mut x = 0;
        while x + 8 <= ow {
            let mut acc = [seed; R];
            for (&off, &w) in offsets.iter().zip(weights) {
                let wv = _mm256_set1_ps(w);
                for (r, a) in acc.iter_mut().enumerate() {
                    // SAFETY: row `r < R`, columns `x..x + 8` within `ow`:
                    // readable by this function's contract.
                    let v = unsafe { _mm256_loadu_ps(src.add(r * row_step + off + x)) };
                    *a = _mm256_fmadd_ps(wv, v, *a);
                }
            }
            for (r, &a) in acc.iter().enumerate() {
                // SAFETY: row `r < R`, columns `x..x + 8` within `ow`.
                unsafe { _mm256_storeu_ps(out.add(r * ow + x), clamp(a)) };
            }
            x += 8;
        }
        let rem = ow - x;
        if rem > 0 {
            // SAFETY: `8 - rem` is in `1..8`, so the 8 lanes read from the
            // 16-entry table are in bounds.
            let mask =
                unsafe { _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - rem) as *const __m256i) };
            let mut acc = [seed; R];
            for (&off, &w) in offsets.iter().zip(weights) {
                let wv = _mm256_set1_ps(w);
                for (r, a) in acc.iter_mut().enumerate() {
                    // SAFETY: only the first `rem` lanes (columns
                    // `x..ow`) are accessed; the rest are masked off.
                    let v = unsafe { _mm256_maskload_ps(src.add(r * row_step + off + x), mask) };
                    *a = _mm256_fmadd_ps(wv, v, *a);
                }
            }
            for (r, &a) in acc.iter().enumerate() {
                // SAFETY: masked to columns `x..ow` of row `r < R`.
                unsafe { _mm256_maskstore_ps(out.add(r * ow + x), mask, clamp(a)) };
            }
        }
    }
}

/// AVX-512 micro-kernel: the whole `MR x NR` tile in registers, each row
/// two `__m512` accumulators (16 of the 32 `zmm`) updated with
/// `vfmadd231ps` per `k`-step. [`MicroKernel::dot`] and
/// [`MicroKernel::stencil_plane`] run the AVX2 bodies.
///
/// Not constructible outside this module: the only `'static` instance is
/// handed out through [`SIMD_TIERS`] after runtime feature detection, which
/// is what makes the `unsafe` `#[target_feature]` calls in the trait impl
/// sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub(crate) struct Avx512Kernel {
    _only_via_dispatch: (),
}

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx512Kernel {
    fn name(&self) -> &'static str {
        "avx512+fma"
    }

    fn tile_full(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
    ) {
        self.tile_edge(a_panel, b_panel, kc, c, ldc, ci, cj, MR, NR);
    }

    fn tile_edge(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        ci: usize,
        cj: usize,
        mr: usize,
        nr: usize,
    ) {
        assert!(a_panel.len() >= kc * MR, "A panel too short");
        assert!(b_panel.len() >= kc * NR, "B panel too short");
        assert!(mr <= MR && nr <= NR, "edge tile exceeds register tile");
        if mr == 0 || nr == 0 {
            return;
        }
        assert!(
            ldc >= cj + nr && c.len() >= (ci + mr - 1) * ldc + cj + nr,
            "C does not cover the register tile"
        );
        let c = &mut c[ci * ldc + cj..];
        // SAFETY: `Avx512Kernel` instances are only handed out when
        // `is_x86_feature_detected!` reports AVX-512F, AVX2 and FMA (see
        // `SIMD_TIERS`); the asserts above establish the bounds contract of
        // `avx512::tile`.
        unsafe { avx512::tile(a_panel, b_panel, kc, c, ldc, mr, nr) }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let k = a.len().min(b.len());
        // SAFETY: AVX2+FMA availability as in `tile_edge`; `k` is clamped to
        // both slice lengths, which is `avx2::dot`'s bounds contract.
        unsafe { avx2::dot(&a[..k], &b[..k]) }
    }

    fn stencil_plane(
        &self,
        src: &[f32],
        row_step: usize,
        offsets: &[usize],
        weights: &[f32],
        bias: f32,
        clamp: (f32, f32),
        out: &mut [f32],
        ow: usize,
    ) {
        assert_stencil_bounds(src, row_step, offsets, weights, out, ow);
        // SAFETY: AVX2+FMA availability as in `tile_edge`;
        // `assert_stencil_bounds` is `avx2::stencil_plane`'s bounds contract.
        unsafe { avx2::stencil_plane(src, row_step, offsets, weights, bias, clamp, out, ow) }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The raw `#[target_feature]` tile bodies. Callers must guarantee
    //! AVX-512F, AVX2 and FMA are available on the running CPU.

    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };

    use crate::packed::{MR, NR};

    /// `f32` lanes of one `zmm` register.
    const LANES: usize = 16;
    const _: () = assert!(
        MR == 8 && NR == 2 * LANES,
        "`tile` matches rows 1..=8, two vectors"
    );

    /// `C[0..mr][0..nr] += A_panel · B_panel` over `kc` steps, `c` starting
    /// at the tile's top-left element. Only the live rows and 16-lane
    /// vectors are accumulated: the register tile is `mr x nr.div_ceil(16)`
    /// vectors, so a batch-1 dense layer pays one row, not eight.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX2 and FMA. `1 <= mr <= MR`,
    /// `1 <= nr <= NR`; `a_panel` must hold at least `kc * MR` elements,
    /// `b_panel` at least `kc * NR`, and `c` must cover rows `0..mr` at
    /// columns `0..nr` under stride `ldc`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile(
        a_panel: &[f32],
        b_panel: &[f32],
        kc: usize,
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let (a, b, c) = (a_panel.as_ptr(), b_panel.as_ptr(), c.as_mut_ptr());
        // SAFETY (every arm): `R == mr` and `V == nr.div_ceil(LANES)` turn
        // this function's contract into `rows`'s.
        unsafe {
            match (mr, nr > LANES) {
                (1, false) => rows::<1, 1>(a, b, kc, c, ldc, nr),
                (2, false) => rows::<2, 1>(a, b, kc, c, ldc, nr),
                (3, false) => rows::<3, 1>(a, b, kc, c, ldc, nr),
                (4, false) => rows::<4, 1>(a, b, kc, c, ldc, nr),
                (5, false) => rows::<5, 1>(a, b, kc, c, ldc, nr),
                (6, false) => rows::<6, 1>(a, b, kc, c, ldc, nr),
                (7, false) => rows::<7, 1>(a, b, kc, c, ldc, nr),
                (8, false) => rows::<8, 1>(a, b, kc, c, ldc, nr),
                (1, true) => rows::<1, 2>(a, b, kc, c, ldc, nr),
                (2, true) => rows::<2, 2>(a, b, kc, c, ldc, nr),
                (3, true) => rows::<3, 2>(a, b, kc, c, ldc, nr),
                (4, true) => rows::<4, 2>(a, b, kc, c, ldc, nr),
                (5, true) => rows::<5, 2>(a, b, kc, c, ldc, nr),
                (6, true) => rows::<6, 2>(a, b, kc, c, ldc, nr),
                (7, true) => rows::<7, 2>(a, b, kc, c, ldc, nr),
                (8, true) => rows::<8, 2>(a, b, kc, c, ldc, nr),
                _ => unreachable!("tile rows {mr} outside 1..={MR}"),
            }
        }
    }

    /// The first `R` rows and `V` 16-lane vectors of the register tile: one
    /// FMA chain per element over `kc` steps, then a masked add into `C` of
    /// the `nr` live columns.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX2 and FMA. `1 <= R <= MR`,
    /// `V == nr.div_ceil(LANES)` with `1 <= nr <= NR`; `a` must be readable
    /// for `kc * MR` elements, `b` for `kc * NR`, and `c + r * ldc + x`
    /// readable and writable for every `r < R`, `x < nr`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn rows<const R: usize, const V: usize>(
        a: *const f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        nr: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for p in 0..kc {
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                // SAFETY: `p * NR + v * LANES + LANES <= kc * NR`; loadu has
                // no alignment requirement.
                *x = unsafe { _mm512_loadu_ps(b.add(p * NR + v * LANES)) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                // SAFETY: `p * MR + r < kc * MR`.
                let av = unsafe { _mm512_set1_ps(*a.add(p * MR + r)) };
                for (x, &bx) in row.iter_mut().zip(&bv) {
                    *x = _mm512_fmadd_ps(av, bx, *x);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                // Vector `v < V` holds `live >= 1` of the `nr` columns.
                let live = nr - v * LANES;
                let mask: __mmask16 = if live >= LANES { !0 } else { (1 << live) - 1 };
                // SAFETY: column `v * LANES < nr` of row `r < R` is in bounds,
                // and the masked load / store touch only columns below `nr`.
                unsafe {
                    let out = c.add(r * ldc + v * LANES);
                    let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, out), x);
                    _mm512_mask_storeu_ps(out, mask, sum);
                }
            }
        }
    }
}

static SCALAR: ScalarKernel = ScalarKernel;

/// One SIMD tier: its kernel and the CPU features its `#[target_feature]`
/// bodies enable. The kernel may run only where the CPU has all of them.
struct Tier {
    kernel: &'static dyn MicroKernel,
    needs: &'static [&'static str],
}

impl Tier {
    /// The features in [`Tier::needs`] the running CPU lacks.
    fn missing(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.needs.iter().copied().filter(|&f| !cpu_has(f))
    }

    /// The kernel, if the running CPU has every feature it needs.
    fn supported(&self) -> Option<&'static dyn MicroKernel> {
        self.missing().next().is_none().then_some(self.kernel)
    }
}

/// Every SIMD tier this build has, fastest first. The kernel statics are
/// private to this module and reach callers only through
/// [`Tier::supported`].
#[cfg(target_arch = "x86_64")]
static SIMD_TIERS: [Tier; 2] = [
    Tier {
        kernel: &Avx512Kernel {
            _only_via_dispatch: (),
        },
        needs: &["avx512f", "avx2", "fma"],
    },
    Tier {
        kernel: &Avx2Kernel {
            _only_via_dispatch: (),
        },
        needs: &["avx2", "fma"],
    },
];

#[cfg(not(target_arch = "x86_64"))]
static SIMD_TIERS: [Tier; 0] = [];

#[cfg(target_arch = "x86_64")]
fn cpu_has(feature: &str) -> bool {
    match feature {
        "avx512f" => std::is_x86_feature_detected!("avx512f"),
        "avx2" => std::is_x86_feature_detected!("avx2"),
        "fma" => std::is_x86_feature_detected!("fma"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has(_feature: &str) -> bool {
    false
}

#[derive(Clone, Copy)]
struct Dispatch {
    /// The fastest SIMD tier the CPU supports.
    simd: Option<&'static dyn MicroKernel>,
    forced_scalar: bool,
}

static DISPATCH: OnceLock<Dispatch> = OnceLock::new();

fn dispatch() -> Dispatch {
    *DISPATCH.get_or_init(|| {
        let forced_scalar = std::env::var("ORPHEUS_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("yes"))
            .unwrap_or(false);
        Dispatch {
            simd: SIMD_TIERS.iter().find_map(Tier::supported),
            forced_scalar,
        }
    })
}

/// Whether the running CPU supports a SIMD micro-kernel (ignores the
/// `ORPHEUS_FORCE_SCALAR` override).
pub fn simd_available() -> bool {
    dispatch().simd.is_some()
}

/// Whether [`active_kernel`] currently resolves to a SIMD kernel.
pub fn active_is_simd() -> bool {
    let d = dispatch();
    d.simd.is_some() && !d.forced_scalar
}

/// The micro-kernel selected by the dispatch rules (see module docs).
pub fn active_kernel() -> &'static dyn MicroKernel {
    match dispatch() {
        Dispatch {
            simd: Some(mk),
            forced_scalar: false,
        } => mk,
        _ => &SCALAR,
    }
}

/// The always-available scalar micro-kernel, bit-identical to the pre-SIMD
/// packed path.
pub fn scalar_kernel() -> &'static dyn MicroKernel {
    &SCALAR
}

/// Name of the ISA the active kernel targets (`"scalar"`, `"avx2+fma"` or
/// `"avx512+fma"`), for flight recording and bench metadata.
pub fn dispatch_name() -> &'static str {
    active_kernel().name()
}

/// The scalar kernel, then every SIMD tier the running CPU supports,
/// slowest first, whatever [`active_kernel`] picked: what a test iterates to
/// prove each tier on this host.
#[cfg(test)]
pub(crate) fn host_kernels() -> Vec<&'static dyn MicroKernel> {
    let simd = SIMD_TIERS.iter().rev().filter_map(Tier::supported);
    std::iter::once(scalar_kernel()).chain(simd).collect()
}

/// Each SIMD tier the running CPU does not support, with the features it
/// lacks: what [`host_kernels`] leaves out.
#[cfg(test)]
pub(crate) fn host_skipped_tiers() -> Vec<(&'static str, Vec<&'static str>)> {
    SIMD_TIERS
        .iter()
        .map(|t| (t.kernel.name(), t.missing().collect::<Vec<_>>()))
        .filter(|(_, lacks)| !lacks.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert_eq!(scalar_kernel().name(), "scalar");
    }

    #[test]
    fn active_kernel_matches_report() {
        // Dispatch picks the fastest tier the host supports: the last one
        // `host_kernels` lists.
        let mk = active_kernel();
        let best = *host_kernels().last().unwrap();
        if active_is_simd() {
            assert_eq!(mk.name(), best.name());
        } else {
            assert_eq!(mk.name(), "scalar");
        }
        assert_eq!(dispatch_name(), mk.name());
    }

    #[test]
    fn scalar_dot_matches_reference_bitwise() {
        // The exact chunked summation order is a compatibility contract.
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.25 - 4.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.5 - (i as f32) * 0.125).collect();
        let k = a.len();
        let mut acc = [0.0f32; 4];
        for q in 0..k / 4 {
            for l in 0..4 {
                acc[l] += a[q * 4 + l] * b[q * 4 + l];
            }
        }
        let mut tail = 0.0f32;
        for q in (k / 4) * 4..k {
            tail += a[q] * b[q];
        }
        let want = acc[0] + acc[1] + acc[2] + acc[3] + tail;
        assert_eq!(scalar_kernel().dot(&a, &b), want);
    }

    #[test]
    fn scalar_stencil_matches_the_formula() {
        // 3 rows of 11 outputs (one 8-lane chunk and a 3-wide tail), rows
        // 20 apart in `src`, three taps, clamped to [-1, 2].
        let (ow, row_step, offsets, weights) = (11, 20, [0, 3, 21], [0.5, -1.25, 2.0]);
        let src: Vec<f32> = (0..2 * row_step + 21 + ow)
            .map(|i| ((i * 7 % 13) as f32) * 0.3 - 1.5)
            .collect();
        let mut out = vec![f32::NAN; 3 * ow];
        scalar_kernel().stencil_plane(
            &src,
            row_step,
            &offsets,
            &weights,
            0.25,
            (-1.0, 2.0),
            &mut out,
            ow,
        );
        for y in 0..3 {
            for x in 0..ow {
                let mut want = 0.25f32;
                for (off, w) in offsets.iter().zip(weights) {
                    want += w * src[y * row_step + off + x];
                }
                assert_eq!(out[y * ow + x], want.clamp(-1.0, 2.0), "({y}, {x})");
            }
        }
    }

    #[test]
    fn simd_dot_close_to_scalar() {
        let a: Vec<f32> = (0..301)
            .map(|i| ((i * 7 % 13) as f32) * 0.3 - 1.0)
            .collect();
        let b: Vec<f32> = (0..301)
            .map(|i| ((i * 5 % 11) as f32) * 0.2 - 0.9)
            .collect();
        let scalar = scalar_kernel().dot(&a, &b);
        for mk in host_kernels() {
            let simd = mk.dot(&a, &b);
            assert!(
                (scalar - simd).abs() <= 1e-4 * scalar.abs().max(1.0),
                "{}: {scalar} vs {simd}",
                mk.name()
            );
        }
    }
}
