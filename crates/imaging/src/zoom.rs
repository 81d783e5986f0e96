//! ZOOM — region-of-interest magnification for display.
//!
//! The output of the application is presented by zooming in on the ROI
//! containing the stent (Section 3) with bilinear interpolation; the task
//! operates on a whole output image granularity, so its memory requirement
//! exceeds the L2 capacity at full display size (the intra-task bandwidth
//! analysis of Section 5 includes ZOOM).
//!
//! The interpolation is **separable**: per-column tap indices/weights are
//! planned once per geometry, each needed *source* row is resolved
//! horizontally into a pooled f32 row buffer (reused across output rows
//! while upscaling), and the vertical combine runs as a SIMD stream.
//! [`zoom_band_with`] is bit-identical to [`zoom_band_reference`], the scalar
//! separable form (enforced by `tests/simd_stage_identity.rs`).

use crate::image::{ImageU16, Roi};
use crate::simd::{narrow_row, F32x8};

/// Configuration of the zoom task.
#[derive(Debug, Clone)]
pub struct ZoomConfig {
    /// Output width, pixels.
    pub out_width: usize,
    /// Output height, pixels.
    pub out_height: usize,
}

impl Default for ZoomConfig {
    fn default() -> Self {
        Self {
            out_width: 512,
            out_height: 512,
        }
    }
}

/// Per-column bilinear plan: two clamped source columns and their
/// weights.
#[derive(Debug, Clone, Copy, Default)]
struct ColBil {
    i0: u32,
    i1: u32,
    w0: f32,
    w1: f32,
}

/// Pooled scratch of the separable zoom: per-column tap plans (cached
/// across frames while the geometry is stable) and the horizontal row
/// buffers the vertical SIMD combine reads from.
#[derive(Debug, Clone, Default)]
pub struct ZoomScratch {
    plan: Vec<ColBil>,
    /// `2 x out_width` horizontally-resolved source rows.
    rows: Vec<f32>,
    /// Source row held by each slot of `rows` (`-1` = empty). Only valid
    /// within one [`zoom_band_with`] call — source content changes
    /// between frames.
    row_src: [isize; 2],
    /// Geometry key the plan was computed for.
    plan_key: Option<PlanKey>,
}

/// Zoom-plan cache key:
/// `(roi.x, roi.y, roi.width, roi.height, out_w, src_w, src_h)`.
type PlanKey = (usize, usize, usize, usize, usize, usize, usize);

impl ZoomScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current scratch footprint in bytes (plan + row pool).
    pub fn byte_size(&self) -> usize {
        self.plan.capacity() * std::mem::size_of::<ColBil>()
            + self.rows.capacity() * std::mem::size_of::<f32>()
    }

    fn ensure_plan(&mut self, src: &ImageU16, roi: Roi, cfg: &ZoomConfig) {
        let key = (
            roi.x,
            roi.y,
            roi.width,
            roi.height,
            cfg.out_width,
            src.width(),
            src.height(),
        );
        self.rows.resize(2 * cfg.out_width, 0.0);
        self.row_src = [-1; 2];
        if self.plan_key == Some(key) {
            return;
        }
        let sx = roi.width as f64 / cfg.out_width as f64;
        let w = src.width();
        let wm1 = (w - 1) as f64;
        self.plan.clear();
        self.plan.reserve(cfg.out_width);
        for ox in 0..cfg.out_width {
            let fx = roi.x as f64 + (ox as f64 + 0.5) * sx - 0.5;
            let xf = fx.clamp(0.0, wm1);
            let xi0 = xf.floor() as usize;
            let xi1 = (xi0 + 1).min(w - 1);
            let wx = (xf - xi0 as f64) as f32;
            self.plan.push(ColBil {
                i0: xi0 as u32,
                i1: xi1 as u32,
                w0: 1.0 - wx,
                w1: wx,
            });
        }
        self.plan_key = Some(key);
    }

    /// Returns the horizontally-resolved f32 row for source row `sy`,
    /// filling its pool slot if a different row currently occupies it.
    /// Consecutive source rows map to distinct slots (`sy % 2`), so
    /// upscaled output rows reuse the overlap instead of recomputing it.
    fn resolve_row(&mut self, src: &ImageU16, sy: usize, out_w: usize) -> &[f32] {
        let slot = sy % 2;
        let range = slot * out_w..(slot + 1) * out_w;
        if self.row_src[slot] != sy as isize {
            let srow = src.row(sy);
            for (d, p) in self.rows[range.clone()].iter_mut().zip(&self.plan) {
                *d = srow[p.i0 as usize] as f32 * p.w0 + srow[p.i1 as usize] as f32 * p.w1;
            }
            self.row_src[slot] = sy as isize;
        }
        &self.rows[range]
    }
}

/// Computes output rows `y0..y1` of the zoom into `out` (which must have
/// the configured output dimensions). Disjoint row bands are independent,
/// so the zoom can be data-partitioned across cores. `scratch` is
/// caller-owned so sequence runners reuse it: the separable SIMD path.
/// Bit-identical to [`zoom_band_reference`].
pub fn zoom_band_with(
    src: &ImageU16,
    roi: Roi,
    cfg: &ZoomConfig,
    out: &mut ImageU16,
    y0: usize,
    y1: usize,
    scratch: &mut ZoomScratch,
) {
    assert_eq!(
        out.dims(),
        (cfg.out_width, cfg.out_height),
        "output geometry mismatch"
    );
    let roi = roi.clamp_to(src.width(), src.height());
    if roi.is_empty() || cfg.out_width == 0 || cfg.out_height == 0 {
        return;
    }
    scratch.ensure_plan(src, roi, cfg);
    let sy = roi.height as f64 / cfg.out_height as f64;
    let h = src.height();
    let hm1 = (h - 1) as f64;
    for oy in y0..y1.min(cfg.out_height) {
        // center-aligned sampling
        let fy = roi.y as f64 + (oy as f64 + 0.5) * sy - 0.5;
        let yf = fy.clamp(0.0, hm1);
        let yi0 = yf.floor() as usize;
        let yi1 = (yi0 + 1).min(h - 1);
        let wy = (yf - yi0 as f64) as f32;
        scratch.resolve_row(src, yi0, cfg.out_width);
        scratch.resolve_row(src, yi1, cfg.out_width);
        let ow = cfg.out_width;
        let rows = &scratch.rows;
        let r0 = &rows[(yi0 % 2) * ow..(yi0 % 2) * ow + ow];
        let r1 = &rows[(yi1 % 2) * ow..(yi1 % 2) * ow + ow];
        vlerp_row(r0, r1, wy, out.row_mut(oy));
    }
}

/// Scalar reference for the separable zoom: per-pixel recomputation of
/// exactly the tap indices, weights and accumulation order the pooled
/// SIMD path uses, so the two are bit-identical by construction.
pub fn zoom_band_reference(
    src: &ImageU16,
    roi: Roi,
    cfg: &ZoomConfig,
    out: &mut ImageU16,
    y0: usize,
    y1: usize,
) {
    assert_eq!(
        out.dims(),
        (cfg.out_width, cfg.out_height),
        "output geometry mismatch"
    );
    let roi = roi.clamp_to(src.width(), src.height());
    if roi.is_empty() || cfg.out_width == 0 || cfg.out_height == 0 {
        return;
    }
    let sx = roi.width as f64 / cfg.out_width as f64;
    let sy = roi.height as f64 / cfg.out_height as f64;
    let (w, h) = src.dims();
    let (wm1, hm1) = ((w - 1) as f64, (h - 1) as f64);
    for oy in y0..y1.min(cfg.out_height) {
        // center-aligned sampling
        let fy = roi.y as f64 + (oy as f64 + 0.5) * sy - 0.5;
        let yf = fy.clamp(0.0, hm1);
        let yi0 = yf.floor() as usize;
        let yi1 = (yi0 + 1).min(h - 1);
        let wy = (yf - yi0 as f64) as f32;
        for ox in 0..cfg.out_width {
            let fx = roi.x as f64 + (ox as f64 + 0.5) * sx - 0.5;
            let xf = fx.clamp(0.0, wm1);
            let xi0 = xf.floor() as usize;
            let xi1 = (xi0 + 1).min(w - 1);
            let wx = (xf - xi0 as f64) as f32;
            let h0 = src.get(xi0, yi0) as f32 * (1.0 - wx) + src.get(xi1, yi0) as f32 * wx;
            let h1 = src.get(xi0, yi1) as f32 * (1.0 - wx) + src.get(xi1, yi1) as f32 * wx;
            let v = h0 * (1.0 - wy) + h1 * wy;
            out.set(ox, oy, v.clamp(0.0, u16::MAX as f32) as u16);
        }
    }
}

/// Vertical bilinear combine of one output row:
/// `out[i] = clamp(r0[i]*(1-wy) + r1[i]*wy)` as u16, a lane chunk at a time
/// through [`narrow_row`].
fn vlerp_row(r0: &[f32], r1: &[f32], wy: f32, out: &mut [u16]) {
    let vw0 = F32x8::splat(1.0 - wy);
    let vw1 = F32x8::splat(wy);
    narrow_row(
        out,
        #[inline(always)]
        |i, _| F32x8::load(&r0[i..]) * vw0 + F32x8::load(&r1[i..]) * vw1,
        |j, _| r0[j] * (1.0 - wy) + r1[j] * wy,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    /// Magnifies `roi` of `src` to the configured output size: all rows as
    /// one band on fresh scratch.
    fn zoom(src: &ImageU16, roi: Roi, cfg: &ZoomConfig) -> ImageU16 {
        let mut out = ImageU16::new(cfg.out_width, cfg.out_height);
        let mut scratch = ZoomScratch::new();
        zoom_band_with(src, roi, cfg, &mut out, 0, cfg.out_height, &mut scratch);
        out
    }

    #[test]
    fn identity_zoom_copies() {
        let src = Image::from_fn(16, 16, |x, y| (x * 16 + y) as u16);
        let cfg = ZoomConfig {
            out_width: 16,
            out_height: 16,
        };
        let out = zoom(&src, src.full_roi(), &cfg);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(out.get(x, y), src.get(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn constant_region_stays_constant() {
        let src = ImageU16::filled(32, 32, 1234);
        let cfg = ZoomConfig {
            out_width: 64,
            out_height: 64,
        };
        let out = zoom(&src, Roi::new(4, 4, 16, 16), &cfg);
        for y in 0..64 {
            for x in 0..64 {
                let v = out.get(x, y);
                assert!((v as i32 - 1234).abs() <= 1, "({x},{y}) = {v}");
            }
        }
    }

    #[test]
    fn upscale_preserves_gradient_direction() {
        let src = Image::from_fn(16, 16, |x, _| (x * 100) as u16);
        let cfg = ZoomConfig {
            out_width: 64,
            out_height: 64,
        };
        let out = zoom(&src, src.full_roi(), &cfg);
        for y in 0..64 {
            for x in 1..64 {
                assert!(
                    out.get(x, y) >= out.get(x - 1, y),
                    "not monotone at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn empty_roi_yields_black() {
        let src = ImageU16::filled(8, 8, 500);
        let cfg = ZoomConfig {
            out_width: 4,
            out_height: 4,
        };
        let out = zoom(&src, Roi::new(0, 0, 0, 0), &cfg);
        assert_eq!(out.min_max(), (0, 0));
    }

    #[test]
    fn pooled_simd_matches_reference_bits() {
        // odd geometry + up/downscale factors exercise the remainder
        // lanes, the row-cache ring, and border-clamped taps
        let src = Image::from_fn(37, 23, |x, y| ((x * 541 + y * 733) % 4096) as u16);
        let mut scratch = ZoomScratch::new();
        for (ow, oh) in [(61, 47), (17, 11), (37, 23)] {
            let cfg = ZoomConfig {
                out_width: ow,
                out_height: oh,
            };
            let roi = Roi::new(2, 1, 33, 21);
            let mut fast = ImageU16::new(ow, oh);
            let mut reference = ImageU16::new(ow, oh);
            // bands exercise scratch reuse mid-image
            zoom_band_with(&src, roi, &cfg, &mut fast, 0, oh / 2, &mut scratch);
            zoom_band_with(&src, roi, &cfg, &mut fast, oh / 2, oh, &mut scratch);
            zoom_band_reference(&src, roi, &cfg, &mut reference, 0, oh);
            for y in 0..oh {
                assert_eq!(
                    fast.row(y),
                    reference.row(y),
                    "row {y} differs for {ow}x{oh}"
                );
            }
        }
    }
}
