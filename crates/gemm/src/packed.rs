//! BLIS-style packed GEMM with a register-tiled micro-kernel.
//!
//! Both operands are repacked into micro-panel order so the micro-kernel
//! streams through memory with unit stride: `A` in `MR`-row panels, `B` in
//! `NR`-column panels, both cut into `KC`-deep blocks of the shared
//! dimension. The micro-kernel itself is pluggable (scalar, AVX2/FMA or
//! AVX-512, see the `simd` module); it computes an `MR x NR = 8 x 32` block
//! of `C`, held entirely in registers on AVX-512 and as four `4 x 16`
//! register sub-tiles on AVX2 and scalar. The panel format is the same for
//! every kernel, so weights are packed once whatever the host's ISA.
//!
//! Weights that are reused across runs are packed **once** into
//! [`PackedWeights`] (at `Engine::load` time). The prepacked-A driver,
//! [`gemm_prepacked_a_images`], then runs
//!
//! ```text
//! for p0 in KC-blocks            // one sweep of a packed weight block ...
//!   for img in images            // ... serves every image of the bucket
//!     for jr in NR-tiles
//!       loader.load(panel, img, p0, kc, jr)   // kc x NR floats, 32 KB
//!       for ir in MR-tiles: micro-kernel tile
//! ```
//!
//! so each B micro-panel is produced by a [`PanelLoader`] right before the
//! tiles that consume it: it lives and dies in L1, and one panel per thread
//! is the only B-side scratch. The loader is what separates a plain GEMM
//! (row-major `B`) from an implicit-GEMM convolution (the column matrix
//! gathered from the image, never materialised). This is the one A-side
//! nest: [`gemm_packed`], behind the public [`crate::gemm`], packs its `A`
//! into thread-local scratch in the same layout and runs it too. Only
//! [`gemm_prepacked_b`] (dense layers, weights on the right) keeps a nest of
//! its own.

use orpheus_threads::ThreadPool;

use crate::driver::GemmKernel;
use crate::im2col::{load_column_panel, Im2colParams};
use crate::kernels::scale_c;
use crate::simd::MicroKernel;

/// Rows of the register tile: the one packed-panel geometry every
/// micro-kernel consumes. AVX-512 holds all 8 rows; AVX2 and scalar run the
/// tile as two 4-row halves (see the `simd` module).
pub(crate) const MR: usize = 8;
/// Columns of the register tile: two AVX-512 vectors (four AVX2 vectors)
/// of f32. A `KC x NR` B micro-panel is 32 KB and stays L1-resident.
pub(crate) const NR: usize = 32;
/// Rows of the cache-resident `A` panel.
const MC: usize = 64;
/// Shared dimension of the cache-resident panels.
const KC: usize = 256;

/// Below this output width the register-tiled kernel wastes most of its
/// `NR`-wide tile; [`gemm_small_n`] takes over.
pub(crate) const SMALL_N: usize = 16;

/// Packed-panel GEMM: `C = A·B + beta·C`. `A` is packed into thread-local
/// scratch in the layout [`PackedWeights::pack_a`] builds, then the
/// prepacked-A nest runs over a row-major loader of `B`.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_packed(
    mk: &dyn MicroKernel,
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
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(
        n >= SMALL_N || cfg!(test),
        "driver routes n < SMALL_N to gemm_small_n"
    );
    let mut a_pack = orpheus_threads::take_scratch(m.div_ceil(MR) * MR * k);
    pack_a_blocks(&mut a_pack, a, lda, m, k);
    let loader = PanelLoader {
        data: b,
        image_stride: 0,
        layout: PanelLayout::RowMajor { ldb, n },
    };
    prepacked_a_band(mk, &a_pack, m, k, &loader, 0..1, 0, m, c, ldc, 0, beta);
}

/// GEMM for narrow outputs (`n < SMALL_N`), covering GEMV (`n == 1`, the
/// dense classifier heads) and late convolution stages whose feature maps
/// have shrunk to a few pixels.
///
/// Register tiles are useless here; instead `B` is transposed once into
/// `n` contiguous rows of length `k`, and each output is a dot product
/// delegated to the micro-kernel's [`MicroKernel::dot`].
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_small_n(
    mk: &dyn MicroKernel,
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
    scale_c(m, n, c, ldc, beta);
    if k == 0 {
        return;
    }
    // Bᵀ: row j holds column j of B, contiguous along k.
    let mut bt = orpheus_threads::take_scratch(n * k);
    for p in 0..k {
        let src = &b[p * ldb..p * ldb + n];
        for (j, &v) in src.iter().enumerate() {
            bt[j * k + p] = v;
        }
    }
    for i in 0..m {
        let a_row = &a[i * lda..i * lda + k];
        let c_row = &mut c[i * ldc..i * ldc + n];
        for (j, out) in c_row.iter_mut().enumerate() {
            let b_row = &bt[j * k..(j + 1) * k];
            *out += mk.dot(a_row, b_row);
        }
    }
}

/// A weight operand packed once into micro-panel order, ready to be
/// multiplied on every run without repacking.
///
/// Built at model-load time (`Engine::load`) and stored per layer alongside
/// the memory plan; the steady-state run loop then packs only the
/// activation operand into thread-local scratch, keeping the
/// zero-steady-state-allocation invariant.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    side: PackedSide,
    k: usize,
    data: Vec<f32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedSide {
    /// Weights are the left operand: `m x k`, packed in `MR`-row panels.
    A { m: usize },
    /// Weights are the right operand: `k x n`, packed in `NR`-column panels.
    B { n: usize },
}

impl PackedWeights {
    /// Packs an `m x k` left-hand weight matrix (leading dimension `lda`)
    /// for [`gemm_prepacked_a`]. This is the convolution layout, where the
    /// weight matrix multiplies the im2col activation matrix from the left.
    pub fn pack_a(a: &[f32], m: usize, k: usize, lda: usize) -> Self {
        assert!(lda >= k, "leading dimension too small");
        assert!(
            k == 0 || m == 0 || a.len() >= (m - 1) * lda + k,
            "weight buffer too small"
        );
        let mut data = vec![0.0f32; m.div_ceil(MR) * MR * k];
        pack_a_blocks(&mut data, a, lda, m, k);
        PackedWeights {
            side: PackedSide::A { m },
            k,
            data,
        }
    }

    /// Packs the transpose of an `n x k` weight matrix (row-major, e.g. a
    /// dense layer's `[out_features x in_features]` tensor) as the `k x n`
    /// right operand for [`gemm_prepacked_b`], so `y = x·Wᵀ` runs as one
    /// GEMM over the whole batch.
    pub fn pack_b_transposed(w: &[f32], n: usize, k: usize) -> Self {
        assert!(w.len() >= n * k, "weight buffer too small");
        let n_tiles = n.div_ceil(NR);
        let mut data = vec![0.0f32; n_tiles * NR * k];
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let blk = n_tiles * NR * p0;
            for t in 0..n_tiles {
                let base = blk + t * kc * NR;
                let j0 = t * NR;
                let cols = NR.min(n - j0);
                for p in 0..kc {
                    for (c, slot) in data[base + p * NR..base + p * NR + cols]
                        .iter_mut()
                        .enumerate()
                    {
                        *slot = w[(j0 + c) * k + p0 + p];
                    }
                }
            }
        }
        PackedWeights {
            side: PackedSide::B { n },
            k,
            data,
        }
    }

    /// Shared (`k`) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output rows produced by an A-side pack (panics on a B-side pack).
    pub fn out_rows(&self) -> usize {
        match self.side {
            PackedSide::A { m } => m,
            PackedSide::B { .. } => panic!("B-side pack has no output rows"),
        }
    }

    /// Output columns produced by a B-side pack (panics on an A-side pack).
    pub fn out_cols(&self) -> usize {
        match self.side {
            PackedSide::B { n } => n,
            PackedSide::A { .. } => panic!("A-side pack has no output columns"),
        }
    }

    /// Heap bytes held by the packed panels (load-time cost accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Where the prepacked-A driver's B micro-panels come from: image `i`'s
/// `k x n` right-hand operand is read from `data[i * image_stride..]`.
#[derive(Debug, Clone, Copy)]
pub struct PanelLoader<'a> {
    /// The operands' backing data, image after image.
    pub data: &'a [f32],
    /// Offset from one image's data to the next.
    pub image_stride: usize,
    /// How one image's data maps onto its operand.
    pub layout: PanelLayout<'a>,
}

/// How a [`PanelLoader`] turns one image's data into `kc x NR` micro-panels.
#[derive(Debug, Clone, Copy)]
pub enum PanelLayout<'a> {
    /// The data is the row-major `k x n` operand, leading dimension `ldb`.
    RowMajor { ldb: usize, n: usize },
    /// [`PanelLayout::RowMajor`] over a column matrix the caller built with
    /// [`crate::im2col`] (eager GEMM convolution); differs in trace name only.
    Materialised { ldb: usize, n: usize },
    /// Implicit GEMM: the data is a CHW image and the operand its column
    /// matrix under this lowering, gathered panel by panel, never built.
    VirtualColumns(&'a Im2colParams),
}

impl PanelLoader<'_> {
    /// Loader name for trace attribution.
    fn name(&self) -> &'static str {
        match self.layout {
            PanelLayout::RowMajor { .. } => "row-major",
            PanelLayout::Materialised { .. } => "materialised",
            PanelLayout::VirtualColumns(_) => "virtual",
        }
    }

    /// Columns of each image's operand.
    fn n(&self) -> usize {
        match self.layout {
            PanelLayout::RowMajor { n, .. } | PanelLayout::Materialised { n, .. } => n,
            PanelLayout::VirtualColumns(params) => params.matrix_cols(),
        }
    }

    /// Panics unless `images` operands of depth `k` can be loaded.
    fn check(&self, k: usize, images: usize) {
        let per_image = match self.layout {
            PanelLayout::RowMajor { ldb, n } | PanelLayout::Materialised { ldb, n } => {
                assert!(ldb >= n, "leading dims too small");
                k.saturating_sub(1) * ldb + n
            }
            PanelLayout::VirtualColumns(params) => {
                assert_eq!(params.matrix_rows(), k, "lowering depth != packed k");
                params.channels * params.height * params.width
            }
        };
        let needed = (images - 1) * self.image_stride + per_image;
        assert!(k == 0 || self.data.len() >= needed, "B buffer too small");
    }

    /// Writes rows `p0..p0 + kc`, columns `j0..j0 + NR` of image `img`'s
    /// operand into `dst` in `[p][c]` order, zero-padding a ragged tile.
    fn load(&self, dst: &mut [f32], img: usize, p0: usize, kc: usize, j0: usize) {
        let data = &self.data[img * self.image_stride..];
        match self.layout {
            PanelLayout::RowMajor { ldb, n } | PanelLayout::Materialised { ldb, n } => {
                pack_b_panel(dst, data, ldb, p0, kc, j0, n)
            }
            PanelLayout::VirtualColumns(params) => load_column_panel(params, data, dst, p0, kc, j0),
        }
    }
}

/// `C = packed_A·B + beta·C` where the `m x k` left operand was packed once
/// with [`PackedWeights::pack_a`].
///
/// Unlike [`crate::gemm`], narrow outputs are handled by ragged register
/// tiles rather than the dot-product path, so the packed panels are used
/// for every shape.
///
/// # Panics
///
/// Panics if `weights` is not an A-side pack or any buffer is too small.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_prepacked_a(
    kernel: GemmKernel,
    weights: &PackedWeights,
    n: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    let loader = PanelLoader {
        data: b,
        image_stride: 0,
        layout: PanelLayout::RowMajor { ldb, n },
    };
    let pool = ThreadPool::single();
    gemm_prepacked_a_images(kernel, &pool, weights, &loader, 1, c, ldc, 0, beta);
}

/// The prepacked-A driver behind [`gemm_prepacked_a`] and GEMM convolution:
/// `C[img] = packed_A·B[img] + beta·C[img]` for `images` right-hand operands
/// drawn from `loader`. Image `img`'s `m x n` result (leading dimension
/// `ldc`) lands at `c[img * c_image_stride..]`. The images are walked inside
/// each `KC` block, so one sweep of the packed weights serves the whole
/// batch, and every output element accumulates exactly as it does in a
/// single-image call.
///
/// # Panics
///
/// Panics if `weights` is not an A-side pack, the loader's depth differs
/// from it, or any buffer is too small.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_prepacked_a_images(
    kernel: GemmKernel,
    pool: &ThreadPool,
    weights: &PackedWeights,
    loader: &PanelLoader,
    images: usize,
    c: &mut [f32],
    ldc: usize,
    c_image_stride: usize,
    beta: f32,
) {
    let mk = crate::driver::micro_kernel_for(kernel);
    prepacked_a_images(
        mk,
        pool,
        weights,
        loader,
        images,
        c,
        ldc,
        c_image_stride,
        beta,
    );
}

/// [`gemm_prepacked_a_images`] on the micro-kernel `mk`.
#[allow(clippy::too_many_arguments)]
fn prepacked_a_images(
    mk: &dyn MicroKernel,
    pool: &ThreadPool,
    weights: &PackedWeights,
    loader: &PanelLoader,
    images: usize,
    c: &mut [f32],
    ldc: usize,
    c_image_stride: usize,
    beta: f32,
) {
    let (m, k, n) = (weights.out_rows(), weights.k, loader.n());
    if m == 0 || n == 0 || images == 0 {
        return;
    }
    assert!(ldc >= n, "leading dims too small");
    let last = (images - 1) * c_image_stride;
    assert!(c.len() >= last + (m - 1) * ldc + n, "C buffer too small");
    assert!(
        images == 1 || c_image_stride >= (m - 1) * ldc + n,
        "C images overlap"
    );
    loader.check(k, images);
    crate::driver::count_dispatch(mk.name());
    // Row bands need every image of C addressable as m whole rows of ldc.
    if pool.num_threads() == 1 || m <= MR || c.len() < last + m * ldc {
        prepacked_a_band(
            mk,
            &weights.data,
            m,
            k,
            loader,
            0..images,
            0,
            m,
            c,
            ldc,
            c_image_stride,
            beta,
        );
        return;
    }
    // Bands must start on a register-tile boundary so band-local row indices
    // map onto the globally packed A panels.
    let min_rows = m.div_ceil(pool.num_threads()).max(1);
    for img in 0..images {
        let c_img = &mut c[img * c_image_stride..][..m * ldc];
        pool.parallel_for_rows_aligned(c_img, ldc, min_rows, MR, |row0, band| {
            let rows = band.len() / ldc;
            prepacked_a_band(
                mk,
                &weights.data,
                m,
                k,
                loader,
                img..img + 1,
                row0,
                rows,
                band,
                ldc,
                0,
                beta,
            );
        });
    }
}

/// The one A-side loop nest: computes rows `row0..row0 + rows` of
/// `C[img] = A·B[img] + beta·C[img]` for every image in `imgs`, where `a` is
/// the `m x k` left operand packed by [`pack_a_blocks`]. `c` starts at row
/// `row0` of the first image (`row0 % MR == 0`); later images follow
/// `c_image_stride` apart.
#[allow(clippy::too_many_arguments)]
fn prepacked_a_band(
    mk: &dyn MicroKernel,
    a: &[f32],
    m: usize,
    k: usize,
    loader: &PanelLoader,
    imgs: std::ops::Range<usize>,
    row0: usize,
    rows: usize,
    c: &mut [f32],
    ldc: usize,
    c_image_stride: usize,
    beta: f32,
) {
    debug_assert_eq!(row0 % MR, 0, "band must start on a register-tile row");
    let n = loader.n();
    for i in 0..imgs.len() {
        scale_c(rows, n, &mut c[i * c_image_stride..], ldc, beta);
    }
    if k == 0 {
        return;
    }
    let m_tiles = m.div_ceil(MR);

    let mut panel = orpheus_threads::take_scratch(KC * NR);

    // The band is one span, timed once by its guard; its attributes are set
    // only while tracing so the production path keeps its single
    // atomic-load cost.
    let mut gemm_span = orpheus_observe::span("gemm_prepacked", "gemm");
    if orpheus_observe::enabled() {
        gemm_span.attr("m", rows);
        gemm_span.attr("n", n);
        gemm_span.attr("k", k);
        gemm_span.attr("isa", mk.name());
        gemm_span.attr("loader", loader.name());
    }

    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let blk = m_tiles * MR * p0;
        for (i, img) in imgs.clone().enumerate() {
            let c = &mut c[i * c_image_stride..];
            for jr in (0..n).step_by(NR) {
                let nr = NR.min(n - jr);
                loader.load(&mut panel, img, p0, kc, jr);
                let b_panel = &panel[..kc * NR];
                for ir in (0..rows).step_by(MR) {
                    let mr = MR.min(rows - ir);
                    let tile = (row0 + ir) / MR;
                    let a_panel = &a[blk + tile * kc * MR..blk + (tile + 1) * kc * MR];
                    if mr == MR && nr == NR {
                        mk.tile_full(a_panel, b_panel, kc, c, ldc, ir, jr);
                    } else {
                        mk.tile_edge(a_panel, b_panel, kc, c, ldc, ir, jr, mr, nr);
                    }
                }
            }
        }
    }
}

/// `C = A·packed_B + beta·C` where the `k x n` right operand was packed once
/// with [`PackedWeights::pack_b_transposed`].
///
/// This is the dense-layer layout: `A` is the activation batch
/// (`m = batch`), so the whole batch runs as one GEMM against the
/// pre-packed transposed weights.
///
/// # Panics
///
/// Panics if `weights` is not a B-side pack or any buffer is too small.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_prepacked_b(
    kernel: GemmKernel,
    m: usize,
    a: &[f32],
    lda: usize,
    weights: &PackedWeights,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    let mk = crate::driver::micro_kernel_for(kernel);
    prepacked_b(mk, m, a, lda, weights, c, ldc, beta);
}

/// [`gemm_prepacked_b`] on the micro-kernel `mk`.
#[allow(clippy::too_many_arguments)]
fn prepacked_b(
    mk: &dyn MicroKernel,
    m: usize,
    a: &[f32],
    lda: usize,
    weights: &PackedWeights,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    let n = weights.out_cols();
    let k = weights.k;
    if m == 0 {
        return;
    }
    assert!(lda >= k && ldc >= n, "leading dims too small");
    if k > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "A buffer too small");
    }
    assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
    if n == 0 {
        return;
    }
    crate::driver::count_dispatch(mk.name());
    scale_c(m, n, c, ldc, beta);
    if k == 0 {
        return;
    }
    let n_tiles = n.div_ceil(NR);

    let mut a_pack = orpheus_threads::take_scratch(MC * KC);

    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let blk = n_tiles * NR * p0;
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            pack_a(&mut a_pack, a, lda, i0, mc, p0, kc);
            for jr in (0..n).step_by(NR) {
                let nr = NR.min(n - jr);
                let tile = jr / NR;
                let b_panel = &weights.data[blk + tile * kc * NR..blk + (tile + 1) * kc * NR];
                for ir in (0..mc).step_by(MR) {
                    let mr = MR.min(mc - ir);
                    let a_panel = &a_pack[(ir / MR) * kc * MR..(ir / MR + 1) * kc * MR];
                    if mr == MR && nr == NR {
                        mk.tile_full(a_panel, b_panel, kc, c, ldc, i0 + ir, jr);
                    } else {
                        mk.tile_edge(a_panel, b_panel, kc, c, ldc, i0 + ir, jr, mr, nr);
                    }
                }
            }
        }
    }
}

/// Packs an `mc x kc` panel of `A` into micro-panels of `MR` rows:
/// element order is `[tile][p][r]` so the micro-kernel reads MR values per
/// `p` with unit stride. Ragged tiles are zero-padded.
fn pack_a(dst: &mut [f32], a: &[f32], lda: usize, i0: usize, mc: usize, p0: usize, kc: usize) {
    let tiles = mc.div_ceil(MR);
    for t in 0..tiles {
        let base = t * kc * MR;
        for p in 0..kc {
            for r in 0..MR {
                let i = i0 + t * MR + r;
                dst[base + p * MR + r] = if t * MR + r < mc {
                    a[i * lda + p0 + p]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the whole `m x k` matrix `a` in the layout [`prepacked_a_band`]
/// reads: one [`pack_a`] panel set per `KC` block, blocks in `k` order.
fn pack_a_blocks(dst: &mut [f32], a: &[f32], lda: usize, m: usize, k: usize) {
    let m_tiles = m.div_ceil(MR);
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let blk = m_tiles * MR * p0;
        pack_a(&mut dst[blk..][..m_tiles * MR * kc], a, lda, 0, m, p0, kc);
    }
}

/// The row-major loader: packs rows `p0..p0 + kc`, columns `j0..j0 + NR` of
/// the `k x n` matrix `b` into one micro-panel, order `[p][c]`.
fn pack_b_panel(dst: &mut [f32], b: &[f32], ldb: usize, p0: usize, kc: usize, j0: usize, n: usize) {
    let cols = NR.min(n - j0);
    for (p, row) in dst[..kc * NR].chunks_exact_mut(NR).enumerate() {
        let src = &b[(p0 + p) * ldb + j0..][..cols];
        row[..cols].copy_from_slice(src);
        row[cols..].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm_naive;
    use crate::simd::scalar_kernel;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * scale)
            .collect()
    }

    fn compare(m: usize, n: usize, k: usize) {
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.05);
        let mut c1 = vec![0.5; m * n];
        let mut c2 = c1.clone();
        gemm_naive(m, n, k, &a, k, &b, n, &mut c1, n, 1.0);
        gemm_packed(scalar_kernel(), m, n, k, &a, k, &b, n, &mut c2, n, 1.0);
        for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                "({m},{n},{k}) elem {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_naive_exact_tiles() {
        compare(MR, NR, 8);
        compare(2 * MR, 2 * NR, KC);
    }

    #[test]
    fn matches_naive_ragged_everything() {
        compare(1, 1, 1);
        compare(MR + 1, NR + 3, 5);
        compare(7, 19, 300); // crosses the KC boundary
        compare(MC + 3, NR * 2 + 5, KC + 17); // crosses MC and KC
    }

    #[test]
    fn zero_k_only_scales() {
        let mut c = [3.0, 3.0];
        gemm_packed(scalar_kernel(), 1, 2, 0, &[], 0, &[], 0, &mut c, 2, 0.5);
        assert_eq!(c, [1.5, 1.5]);
    }

    #[test]
    fn zero_m_or_n_is_noop() {
        let mut c: Vec<f32> = Vec::new();
        gemm_packed(
            scalar_kernel(),
            0,
            5,
            3,
            &[0.0; 15],
            3,
            &[0.0; 15],
            5,
            &mut c,
            5,
            0.0,
        );
        gemm_packed(
            scalar_kernel(),
            5,
            0,
            3,
            &[0.0; 15],
            3,
            &[],
            0,
            &mut c,
            0,
            0.0,
        );
    }

    #[test]
    fn pack_a_zero_pads_ragged_tile() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect(); // 3x2
        let mut dst = vec![f32::NAN; MR * 2];
        pack_a(&mut dst, &a, 2, 0, 3, 0, 2);
        // tile 0, p=0: rows 0..3 of column 0, then zero pad to MR rows.
        let padded = |col: [f32; 3]| [&col[..], &[0.0; MR - 3]].concat();
        assert_eq!(&dst[0..MR], padded([0.0, 2.0, 4.0]));
        assert_eq!(&dst[MR..2 * MR], padded([1.0, 3.0, 5.0]));
    }

    #[test]
    fn pack_b_panel_zero_pads_ragged_tile() {
        let b: Vec<f32> = (0..4).map(|x| x as f32 + 1.0).collect(); // 2x2
        let mut dst = vec![f32::NAN; 2 * NR];
        pack_b_panel(&mut dst, &b, 2, 0, 2, 0, 2);
        assert_eq!(&dst[0..2], &[1.0, 2.0]);
        assert!(dst[2..NR].iter().all(|&x| x == 0.0));
        assert_eq!(&dst[NR..NR + 2], &[3.0, 4.0]);
    }
}

#[cfg(test)]
mod prepacked_tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 29 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    /// Prepacked-A must be bit-identical to the on-the-fly packed kernel of
    /// the same tier: the panels are the same bytes in the same order.
    #[test]
    fn prepacked_a_bit_identical_to_packed() {
        for &(m, n, k) in &[
            (1usize, 1usize, 3usize),
            (MR, NR, 8),
            (7, 19, 300),
            (MC + 3, NR + 5, KC + 17),
        ] {
            let a = seq(m * k, 0.1);
            let b = seq(k * n, 0.05);
            let mut want = vec![0.25; m * n];
            let mut got = want.clone();
            gemm_packed(
                crate::simd::active_kernel(),
                m,
                n,
                k,
                &a,
                k,
                &b,
                n,
                &mut want,
                n,
                1.0,
            );
            let pw = PackedWeights::pack_a(&a, m, k, k);
            gemm_prepacked_a(GemmKernel::Packed, &pw, n, &b, n, &mut got, n, 1.0);
            assert_eq!(want, got, "({m},{n},{k})");
        }
    }

    /// The loader oracle: over a geometry grid, every `(p0, jr)` panel the
    /// virtual-column loader gathers from the image is byte-identical to the
    /// same panel packed from the materialised `im2col` matrix — including
    /// padding taps, ragged last tiles and KC blocks that start mid-channel.
    #[test]
    fn virtual_panels_byte_identical_to_packed_im2col() {
        use crate::im2col::im2col;
        let kernels = [(1, 1), (3, 3), (5, 5), (7, 7), (1, 7)];
        let outs = [(1, 1), (3, 5), (4, 4), (1, 17), (7, 7), (8, 8)];
        let mut checked = 0usize;
        for (gi, &(kh, kw)) in kernels.iter().enumerate() {
            for stride in 1..=3 {
                for pad in [0, 1, 3] {
                    for dil in [1, 2] {
                        for &(oh, ow) in &outs {
                            // Smallest input that yields exactly `oh x ow`.
                            let extent =
                                |o: usize, kk: usize| (o - 1) * stride + dil * (kk - 1) + 1;
                            let (eh, ew) = (extent(oh, kh), extent(ow, kw));
                            if eh <= 2 * pad || ew <= 2 * pad {
                                continue;
                            }
                            // k = channels*kh*kw straddles KC: 255/256/257 rows
                            // for 1x1, two-plus blocks for the larger kernels.
                            let channels = [KC - 1, KC, KC + 1][gi % 3].div_ceil(kh * kw) + gi;
                            let params = Im2colParams {
                                channels,
                                height: eh - 2 * pad,
                                width: ew - 2 * pad,
                                kernel_h: kh,
                                kernel_w: kw,
                                stride_h: stride,
                                stride_w: stride,
                                pad_h: pad,
                                pad_w: pad,
                                dilation_h: dil,
                                dilation_w: dil,
                            };
                            assert_eq!((params.out_h(), params.out_w()), (oh, ow));
                            let (k, n) = (params.matrix_rows(), params.matrix_cols());
                            let image = seq(channels * params.height * params.width, 0.5);
                            let mut columns = vec![f32::NAN; k * n];
                            im2col(&params, &image, &mut columns);
                            let loader = PanelLoader {
                                data: &image,
                                image_stride: 0,
                                layout: PanelLayout::VirtualColumns(&params),
                            };
                            loader.check(k, 1);
                            let mut want = vec![f32::NAN; KC * NR];
                            let mut got = vec![f32::NAN; KC * NR];
                            for p0 in (0..k).step_by(KC) {
                                let kc = KC.min(k - p0);
                                for jr in (0..n).step_by(NR) {
                                    pack_b_panel(&mut want, &columns, n, p0, kc, jr, n);
                                    loader.load(&mut got, 0, p0, kc, jr);
                                    let same = want[..kc * NR]
                                        .iter()
                                        .zip(&got[..kc * NR])
                                        .all(|(w, g)| w.to_bits() == g.to_bits());
                                    assert!(same, "{params:?} p0={p0} jr={jr}");
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "grid collapsed: {checked} panels");
    }

    /// Walking a batch inside each KC block leaves every image's result
    /// bit-identical to its own single-image call, for both loaders.
    #[test]
    fn images_bit_identical_to_single_calls() {
        let params = Im2colParams {
            channels: 30,
            height: 9,
            width: 7,
            kernel_h: 3,
            kernel_w: 3,
            stride_h: 1,
            stride_w: 1,
            pad_h: 1,
            pad_w: 1,
            dilation_h: 1,
            dilation_w: 1,
        };
        let (m, k, n) = (10, params.matrix_rows(), params.matrix_cols());
        let image = params.channels * params.height * params.width;
        let images = 3;
        let input = seq(images * image, 0.3);
        let matrices = seq(images * k * n, 0.2);
        let pw = PackedWeights::pack_a(&seq(m * k, 0.1), m, k, k);
        let pool = ThreadPool::single();
        let loaders = [
            PanelLoader {
                data: &input,
                image_stride: image,
                layout: PanelLayout::VirtualColumns(&params),
            },
            PanelLoader {
                data: &matrices,
                image_stride: k * n,
                layout: PanelLayout::RowMajor { ldb: n, n },
            },
        ];
        for loader in loaders {
            let stride = m * n + 5;
            let mut batched = vec![f32::NAN; images * stride];
            gemm_prepacked_a_images(
                GemmKernel::Packed,
                &pool,
                &pw,
                &loader,
                images,
                &mut batched,
                n,
                stride,
                0.0,
            );
            for img in 0..images {
                let one = PanelLoader {
                    data: &loader.data[img * loader.image_stride..],
                    ..loader
                };
                let mut single = vec![f32::NAN; m * n];
                gemm_prepacked_a_images(
                    GemmKernel::Packed,
                    &pool,
                    &pw,
                    &one,
                    1,
                    &mut single,
                    n,
                    0,
                    0.0,
                );
                assert_eq!(
                    single,
                    &batched[img * stride..][..m * n],
                    "{} image {img}",
                    loader.name()
                );
            }
        }
    }

    #[test]
    fn prepacked_a_parallel_matches_serial() {
        let (m, n, k) = (67, 33, 129);
        let a = seq(m * k, 0.07);
        let b = seq(k * n, 0.03);
        let pw = PackedWeights::pack_a(&a, m, k, k);
        let mut serial = vec![0.0; m * n];
        gemm_prepacked_a(GemmKernel::PackedScalar, &pw, n, &b, n, &mut serial, n, 0.0);
        let loader = PanelLoader {
            data: &b,
            image_stride: 0,
            layout: PanelLayout::RowMajor { ldb: n, n },
        };
        for threads in [2, 3, 5, 8] {
            let pool = ThreadPool::new(threads).unwrap();
            let mut par = vec![0.0; m * n];
            gemm_prepacked_a_images(
                GemmKernel::PackedScalar,
                &pool,
                &pw,
                &loader,
                1,
                &mut par,
                n,
                0,
                0.0,
            );
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn prepacked_b_matches_naive_transposed() {
        use crate::kernels::gemm_naive;
        // y = x·Wᵀ with W stored [n x k] row-major.
        for &(m, n, k) in &[(1usize, 4usize, 37usize), (5, 10, 64), (8, 33, 300)] {
            let x = seq(m * k, 0.1);
            let w = seq(n * k, 0.05);
            // Materialize Wᵀ for the reference.
            let mut wt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    wt[p * n + j] = w[j * k + p];
                }
            }
            let mut want = vec![0.0; m * n];
            gemm_naive(m, n, k, &x, k, &wt, n, &mut want, n, 0.0);
            let pw = PackedWeights::pack_b_transposed(&w, n, k);
            let mut got = vec![0.0; m * n];
            gemm_prepacked_b(GemmKernel::PackedScalar, m, &x, k, &pw, &mut got, n, 0.0);
            for (i, (x1, y1)) in want.iter().zip(&got).enumerate() {
                assert!(
                    (x1 - y1).abs() <= 1e-3 * x1.abs().max(1.0),
                    "({m},{n},{k}) elem {i}: {x1} vs {y1}"
                );
            }
        }
    }

    #[test]
    fn packed_weights_accessors() {
        let a = seq(6, 1.0);
        let pw = PackedWeights::pack_a(&a, 3, 2, 2);
        assert_eq!(pw.out_rows(), 3);
        assert_eq!(pw.k(), 2);
        // Three rows pad to one MR-row tile, two k-steps of f32.
        assert_eq!(pw.bytes(), MR * 2 * std::mem::size_of::<f32>());
        let pw = PackedWeights::pack_b_transposed(&a, 3, 2);
        assert_eq!(pw.out_cols(), 3);
        assert_eq!(pw.k(), 2);
    }

    #[test]
    #[should_panic(expected = "no output columns")]
    fn a_side_pack_rejects_cols_query() {
        let pw = PackedWeights::pack_a(&[1.0, 2.0], 1, 2, 2);
        let _ = pw.out_cols();
    }

    #[test]
    fn zero_k_prepacked_scales_only() {
        let pw = PackedWeights::pack_a(&[], 2, 0, 0);
        let mut c = [2.0, 2.0, 2.0, 2.0];
        gemm_prepacked_a(GemmKernel::Packed, &pw, 2, &[], 2, &mut c, 2, 0.5);
        assert_eq!(c, [1.0, 1.0, 1.0, 1.0]);
    }
}

#[cfg(test)]
mod small_n_tests {
    use super::*;
    use crate::kernels::gemm_naive;
    use crate::simd::scalar_kernel;

    #[test]
    fn small_n_matches_naive() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (5, 1, 37),
            (17, 4, 100),
            (3, 15, 9),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 31 % 11) as f32) * 0.3 - 1.0)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 17 % 7) as f32) * 0.2 - 0.5)
                .collect();
            let mut want = vec![0.5; m * n];
            let mut got = want.clone();
            gemm_naive(m, n, k, &a, k, &b, n, &mut want, n, 1.0);
            gemm_small_n(scalar_kernel(), m, n, k, &a, k, &b, n, &mut got, n, 1.0);
            for (x, y) in want.iter().zip(&got) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "({m},{n},{k}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn small_n_zero_k_scales_only() {
        let mut c = [4.0, 4.0];
        gemm_small_n(scalar_kernel(), 1, 2, 0, &[], 0, &[], 0, &mut c, 2, 0.25);
        assert_eq!(c, [1.0, 1.0]);
    }
}

/// Every micro-kernel tier the host supports, proven on the three packed
/// drivers — not only the one dispatch picks, so an AVX-512 host still
/// proves its AVX2 tier. Run with `--nocapture` to see which tiers ran.
#[cfg(test)]
mod tier_tests {
    use super::*;
    use crate::simd::{host_kernels, host_skipped_tiers};

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 29 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    /// The arithmetic every tier keeps per element of `C` (`a` is `m x k`,
    /// `b` is `k x n`, both dense): scale by `beta`, then for each `KC`
    /// block add one `k`-ordered chain that starts from zero. `fused` picks
    /// the SIMD tiers' single-rounding FMA step over scalar
    /// multiply-then-add.
    #[allow(clippy::too_many_arguments)]
    fn chain(
        fused: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        ldc: usize,
        beta: f32,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut out = c[i * ldc + j] * beta;
                for p0 in (0..k).step_by(KC) {
                    let mut s = 0.0f32;
                    for p in p0..k.min(p0 + KC) {
                        let (x, y) = (a[i * k + p], b[p * n + j]);
                        s = if fused { x.mul_add(y, s) } else { s + x * y };
                    }
                    out += s;
                }
                c[i * ldc + j] = out;
            }
        }
    }

    /// Each tier equals its chain bit for bit, through `gemm_packed`, the
    /// prepacked-A driver (serial and in MR-aligned thread bands) and the
    /// prepacked-B driver, on every tile boundary of `MR x NR = 8 x 32`, `k`
    /// within one `KC` block and across two, into a strided `C` whose
    /// padding columns must survive. AVX-512 and AVX2 both equal the fused
    /// chain, so they are bit-identical to each other; scalar equals the
    /// unfused chain, so the sub-tiled scalar kernel kept the pre-SIMD
    /// per-element order.
    #[test]
    fn every_host_tier_is_its_per_element_chain() {
        for (name, lacks) in host_skipped_tiers() {
            println!("SKIPPED: {name} (host lacks {})", lacks.join(", "));
        }
        let pools = [ThreadPool::single(), ThreadPool::new(3).unwrap()];
        for mk in host_kernels() {
            println!("tier exercised: {}", mk.name());
            let fused = mk.name() != "scalar";
            for m in [1, 7, 8, 9, 16, 17] {
                for n in [1, 15, 16, 17, 31, 32, 33, 64] {
                    for k in [3, KC + 5] {
                        let ldc = n + 3;
                        let a = seq(m * k, 0.1);
                        let b = seq(k * n, 0.05);
                        let init = seq(m * ldc, 0.3);
                        let mut want = init.clone();
                        chain(fused, m, n, k, &a, &b, &mut want, ldc, 0.5);
                        let check = |got: &[f32], driver: &str| {
                            let same = got
                                .iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            assert!(
                                same,
                                "{} {driver} {m}x{n}x{k}: {got:?} vs {want:?}",
                                mk.name()
                            );
                        };

                        let mut got = init.clone();
                        gemm_packed(mk, m, n, k, &a, k, &b, n, &mut got, ldc, 0.5);
                        check(&got, "gemm_packed");

                        let pw = PackedWeights::pack_a(&a, m, k, k);
                        let loader = PanelLoader {
                            data: &b,
                            image_stride: 0,
                            layout: PanelLayout::RowMajor { ldb: n, n },
                        };
                        for pool in &pools {
                            let mut got = init.clone();
                            prepacked_a_images(mk, pool, &pw, &loader, 1, &mut got, ldc, 0, 0.5);
                            check(
                                &got,
                                &format!("prepacked-A x{} threads", pool.num_threads()),
                            );
                        }

                        // Dense weights are stored `n x k`: the transpose of `b`.
                        let w: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
                        let pw = PackedWeights::pack_b_transposed(&w, n, k);
                        let mut got = init.clone();
                        prepacked_b(mk, m, &a, k, &pw, &mut got, ldc, 0.5);
                        check(&got, "prepacked-B");
                    }
                }
            }
        }
    }
}
