//! Lowering a convolution input to a GEMM operand.
//!
//! GEMM convolution rewrites `conv(input, weights)` as
//! `W(co x ck·kh·kw) · im2col(input)`, trading memory (the column matrix) for
//! the ability to use a high-performance GEMM. The paper credits exactly this
//! trade for Orpheus winning on large models and losing to spatial-pack on
//! small ones.
//!
//! The packed tiers do not pay that memory: [`load_column_panel`] gathers
//! each `kc x NR` micro-panel of the (virtual) column matrix straight from
//! the image. [`im2col`] itself serves the eager personality and the unpacked
//! GEMM tiers.

use crate::packed::NR;

/// Geometry of an [`im2col`] lowering for one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Im2colParams {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero padding above/below.
    pub pad_h: usize,
    /// Zero padding left/right.
    pub pad_w: usize,
    /// Vertical dilation (1 = dense kernel).
    pub dilation_h: usize,
    /// Horizontal dilation.
    pub dilation_w: usize,
}

impl Im2colParams {
    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        conv_out_dim(
            self.height,
            self.kernel_h,
            self.stride_h,
            self.pad_h,
            self.dilation_h,
        )
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        conv_out_dim(
            self.width,
            self.kernel_w,
            self.stride_w,
            self.pad_w,
            self.dilation_w,
        )
    }

    /// Rows of the column matrix: one per (channel, ky, kx).
    pub fn matrix_rows(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the column matrix: one per output pixel.
    pub fn matrix_cols(&self) -> usize {
        self.out_h() * self.out_w()
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

/// Expands one CHW image into its column matrix.
///
/// `input` must hold `channels * height * width` elements; `output` must hold
/// `matrix_rows() * matrix_cols()` elements and is fully overwritten
/// (out-of-image taps become zeros).
///
/// # Panics
///
/// Panics if either buffer is too small, or if any stride/dilation is zero.
pub fn im2col(params: &Im2colParams, input: &[f32], output: &mut [f32]) {
    assert!(params.stride_h > 0 && params.stride_w > 0, "zero stride");
    assert!(
        params.dilation_h > 0 && params.dilation_w > 0,
        "zero dilation"
    );
    assert!(
        input.len() >= params.channels * params.height * params.width,
        "input buffer too small"
    );
    let (oh, ow) = (params.out_h(), params.out_w());
    let cols = oh * ow;
    assert!(
        output.len() >= params.matrix_rows() * cols,
        "output buffer too small"
    );

    let mut row = 0;
    for c in 0..params.channels {
        let plane =
            &input[c * params.height * params.width..(c + 1) * params.height * params.width];
        for ky in 0..params.kernel_h {
            for kx in 0..params.kernel_w {
                let out_row = &mut output[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                        - params.pad_h as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= params.height as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row =
                        &plane[iy as usize * params.width..(iy as usize + 1) * params.width];
                    // x taps: ix = ox*stride + kx*dilation - pad
                    let x_off = kx as isize * params.dilation_w as isize - params.pad_w as isize;
                    if params.stride_w == 1 {
                        // Contiguous copy for the in-bounds span.
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            let ix = ox as isize + x_off;
                            *slot = if (0..params.width as isize).contains(&ix) {
                                src_row[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    } else {
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            let ix = (ox * params.stride_w) as isize + x_off;
                            *slot = if (0..params.width as isize).contains(&ix) {
                                src_row[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// The virtual-column loader: writes rows `p0..p0 + kc`, columns
/// `j0..j0 + NR` of the column matrix [`im2col`] would build into `dst` in
/// micro-panel order `[p][c]`, reading the CHW `input` directly. Columns past
/// `matrix_cols()` and out-of-image taps become zeros, so the panel is
/// byte-identical to packing the materialised matrix.
pub(crate) fn load_column_panel(
    params: &Im2colParams,
    input: &[f32],
    dst: &mut [f32],
    p0: usize,
    kc: usize,
    j0: usize,
) {
    let ow = params.out_w();
    let ncols = NR.min(params.matrix_cols() - j0);
    let taps = params.kernel_h * params.kernel_w;
    let plane = params.height * params.width;
    let dst = &mut dst[..kc * NR];
    if ncols < NR {
        for row in dst.chunks_exact_mut(NR) {
            row[ncols..].fill(0.0);
        }
    }
    // Walk the tile's columns in runs that stay on one output row: within a
    // run, pad/stride/dilation resolve once per (ky, kx) tap into "`lead`
    // zeros, `len` pixels from `ix0`, zeros", identical for every channel.
    let mut c0 = 0;
    while c0 < ncols {
        let (oy, ox0) = ((j0 + c0) / ow, (j0 + c0) % ow);
        let run = (ow - ox0).min(ncols - c0);
        for ky in 0..params.kernel_h {
            let iy = (oy * params.stride_h + ky * params.dilation_h).wrapping_sub(params.pad_h);
            for kx in 0..params.kernel_w {
                let tap = ky * params.kernel_w + kx;
                // ix = ox*stride + x_off lies inside the image for ox in lo..hi.
                let x_off = (kx * params.dilation_w) as isize - params.pad_w as isize;
                let lo = (-x_off).max(0) as usize;
                let lo = lo.div_ceil(params.stride_w).clamp(ox0, ox0 + run);
                let hi = (params.width as isize - x_off).max(0) as usize;
                let hi = hi.div_ceil(params.stride_w).clamp(lo, ox0 + run);
                let (lead, len) = if iy < params.height {
                    (lo - ox0, hi - lo)
                } else {
                    (run, 0)
                };
                let ix0 = (lo * params.stride_w) as isize + x_off;
                // Channels whose row `ch*taps + tap` falls in this KC block.
                let ch_lo = p0.saturating_sub(tap).div_ceil(taps);
                let ch_hi = (p0 + kc).saturating_sub(tap).div_ceil(taps);
                for ch in ch_lo..ch_hi {
                    let row = &mut dst[(ch * taps + tap - p0) * NR + c0..][..run];
                    row[..lead].fill(0.0);
                    row[lead + len..].fill(0.0);
                    if len == 0 {
                        continue;
                    }
                    let src = &input[ch * plane + iy * params.width + ix0 as usize..];
                    let body = &mut row[lead..lead + len];
                    if params.stride_w == 1 {
                        body.copy_from_slice(&src[..len]);
                    } else {
                        for (slot, &v) in body.iter_mut().zip(src.iter().step_by(params.stride_w)) {
                            *slot = v;
                        }
                    }
                }
            }
        }
        c0 += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Im2colParams {
        Im2colParams {
            channels: c,
            height: h,
            width: w,
            kernel_h: k,
            kernel_w: k,
            stride_h: s,
            stride_w: s,
            pad_h: p,
            pad_w: p,
            dilation_h: 1,
            dilation_w: 1,
        }
    }

    #[test]
    fn out_dims_match_conv_formula() {
        let p = params(3, 224, 224, 7, 2, 3);
        assert_eq!(p.out_h(), 112);
        assert_eq!(p.out_w(), 112);
        let p = params(1, 5, 5, 3, 1, 1);
        assert_eq!(p.out_h(), 5);
    }

    #[test]
    fn identity_kernel_copies_image() {
        // 1x1 kernel, stride 1, no pad: column matrix == flattened image.
        let p = params(2, 3, 3, 1, 1, 0);
        let input: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let mut out = vec![f32::NAN; p.matrix_rows() * p.matrix_cols()];
        im2col(&p, &input, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn taps_land_on_expected_pixels() {
        // 3x3 image, 2x2 kernel, stride 1, no pad → 2x2 output, 4 rows.
        let p = params(1, 3, 3, 2, 1, 0);
        let input: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let mut out = vec![0.0; 4 * 4];
        im2col(&p, &input, &mut out);
        // Row 0 is tap (ky=0,kx=0): pixels at (oy,ox) = image[oy][ox].
        assert_eq!(&out[0..4], &[0.0, 1.0, 3.0, 4.0]);
        // Row 3 is tap (1,1): image[oy+1][ox+1].
        assert_eq!(&out[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn padding_yields_zeros() {
        let p = params(1, 2, 2, 3, 1, 1);
        let input = vec![1.0; 4];
        let mut out = vec![f32::NAN; p.matrix_rows() * p.matrix_cols()];
        im2col(&p, &input, &mut out);
        // Tap (0,0) of output (0,0) reads image[-1][-1] → 0.
        assert_eq!(out[0], 0.0);
        assert!(out.iter().all(|x| x.is_finite()));
        // Centre tap (ky=1,kx=1) of output (0,0) reads image[0][0] → 1.
        let cols = p.matrix_cols();
        assert_eq!(out[4 * cols], 1.0);
    }

    #[test]
    fn stride_two_skips_pixels() {
        let p = params(1, 4, 4, 1, 2, 0);
        let input: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let mut out = vec![0.0; p.matrix_rows() * p.matrix_cols()];
        im2col(&p, &input, &mut out);
        assert_eq!(out, vec![0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn dilation_spreads_taps() {
        let mut p = params(1, 5, 5, 3, 1, 0);
        p.dilation_h = 2;
        p.dilation_w = 2;
        assert_eq!(p.out_h(), 1);
        let input: Vec<f32> = (0..25).map(|x| x as f32).collect();
        let mut out = vec![0.0; p.matrix_rows() * p.matrix_cols()];
        im2col(&p, &input, &mut out);
        // Taps at (0,0),(0,2),(0,4),(2,0)... = 0,2,4,10,12,14,20,22,24
        assert_eq!(out, vec![0.0, 2.0, 4.0, 10.0, 12.0, 14.0, 20.0, 22.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "input buffer too small")]
    fn undersized_input_panics() {
        let p = params(1, 3, 3, 1, 1, 0);
        let mut out = vec![0.0; 9];
        im2col(&p, &[0.0; 8], &mut out);
    }

    #[test]
    fn asymmetric_kernel_1x7() {
        // Inception-v3 uses 1x7 and 7x1 kernels; make sure geometry holds.
        let p = Im2colParams {
            channels: 1,
            height: 4,
            width: 9,
            kernel_h: 1,
            kernel_w: 7,
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 3,
            dilation_h: 1,
            dilation_w: 1,
        };
        assert_eq!(p.out_h(), 4);
        assert_eq!(p.out_w(), 9);
        assert_eq!(p.matrix_rows(), 7);
        let input = vec![1.0; 36];
        let mut out = vec![0.0; p.matrix_rows() * p.matrix_cols()];
        im2col(&p, &input, &mut out);
        // Centre tap never hits padding.
        let cols = p.matrix_cols();
        assert!(out[3 * cols..4 * cols].iter().all(|&x| x == 1.0));
    }
}
