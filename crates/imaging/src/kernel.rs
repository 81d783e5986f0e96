//! Separable convolution kernels (Gaussian and Gaussian derivatives).
//!
//! The ridge filter needs second-order Gaussian derivatives; the marker
//! extractor needs a Laplacian-of-Gaussian response. Both are built from
//! 1-D kernels applied separably (row pass + column pass), which is what
//! gives the RDG task its linear-scan memory access pattern modelled in
//! Fig. 5 of the paper.

use crate::image::{ImageF32, Roi};

/// A 1-D convolution kernel with odd length, centered at `radius`.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel1D {
    taps: Vec<f32>,
}

impl Kernel1D {
    /// Builds a kernel from raw taps. Panics if the length is even or zero.
    pub fn new(taps: Vec<f32>) -> Self {
        assert!(
            !taps.is_empty() && taps.len() % 2 == 1,
            "kernel length must be odd"
        );
        Self { taps }
    }

    /// Normalized Gaussian kernel `G(x; sigma)` truncated at `3 sigma`.
    pub fn gaussian(sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let radius = (3.0 * sigma).ceil().max(1.0) as isize;
        let mut taps = Vec::with_capacity((2 * radius + 1) as usize);
        let s2 = 2.0 * sigma * sigma;
        for i in -radius..=radius {
            let x = i as f32;
            taps.push((-x * x / s2).exp());
        }
        let sum: f32 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Self { taps }
    }

    /// First Gaussian derivative `G'(x; sigma)`, scale-normalized by `sigma`.
    pub fn gaussian_d1(sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let g = Self::gaussian(sigma);
        let radius = g.radius() as isize;
        let s2 = sigma * sigma;
        let taps = (-radius..=radius)
            .zip(g.taps.iter())
            .map(|(i, &t)| {
                let x = i as f32;
                // d/dx G = -x/sigma^2 * G ; scale-normalize by sigma
                -x / s2 * t * sigma
            })
            .collect();
        Self { taps }
    }

    /// Second Gaussian derivative `G''(x; sigma)`, scale-normalized by
    /// `sigma^2` (Lindeberg gamma-normalization so responses are comparable
    /// across scales).
    pub fn gaussian_d2(sigma: f32) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let g = Self::gaussian(sigma);
        let radius = g.radius() as isize;
        let s2 = sigma * sigma;
        let mut taps: Vec<f32> = (-radius..=radius)
            .zip(g.taps.iter())
            .map(|(i, &t)| {
                let x = i as f32;
                ((x * x - s2) / (s2 * s2)) * t * s2
            })
            .collect();
        // Truncation and discretization leave a small DC residual; remove it
        // so the kernel responds zero on constant signals, as the continuous
        // operator does.
        let dc = taps.iter().sum::<f32>() / taps.len() as f32;
        for t in &mut taps {
            *t -= dc;
        }
        Self { taps }
    }

    /// Kernel half-length.
    pub fn radius(&self) -> usize {
        self.taps.len() / 2
    }

    /// Kernel taps, center at index `radius()`.
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Sum of taps (≈1 for smoothing kernels, ≈0 for derivative kernels).
    pub fn sum(&self) -> f32 {
        self.taps.iter().sum()
    }
}

/// Convolves the rows of `src` within `roi`, writing into `dst` at the same
/// coordinates. Pixels outside the image are border-replicated; pixels
/// outside the ROI but inside the image are read normally, so stripe
/// processing with halos is exact.
///
/// Each row is split once into (left boundary | interior | right boundary)
/// segments, so the interior runs taps-outer over contiguous stride-1 slices
/// — a vectorizable elementwise FMA instead of a per-pixel horizontal
/// reduction. The per-pixel accumulation order (`0 + t0*s0 + t1*s1 + ...`)
/// is unchanged, so results are bit-identical to the per-pixel loop the
/// unit tests keep as `convolve_rows_reference`.
pub fn convolve_rows(src: &ImageF32, dst: &mut ImageF32, roi: Roi, k: &Kernel1D) {
    assert_eq!(src.dims(), dst.dims(), "src/dst dims must match");
    let roi = roi.clamp_to(src.width(), src.height());
    if roi.is_empty() {
        return;
    }
    let r = k.radius();
    let taps = k.taps();
    let w = src.width();
    // x is interior iff x - r >= 0 and x + r < w.
    let int_lo = r.min(w);
    let int_hi = w.saturating_sub(r);
    let (lo, hi) = (roi.x, roi.right());
    let bl_end = lo.max(hi.min(int_lo));
    let ii_end = bl_end.max(hi.min(int_hi));
    for y in roi.y..roi.bottom() {
        let row = src.row(y);
        let out = dst.row_mut(y);
        for seg in [lo..bl_end, ii_end..hi] {
            for x in seg {
                let mut acc = 0.0f32;
                for (j, &t) in taps.iter().enumerate() {
                    let sx = (x + j).saturating_sub(r).min(w - 1);
                    acc += t * row[sx];
                }
                out[x] = acc;
            }
        }
        if bl_end < ii_end {
            let out_seg = &mut out[bl_end..ii_end];
            out_seg.fill(0.0);
            for (j, &t) in taps.iter().enumerate() {
                let src_seg = &row[bl_end + j - r..ii_end + j - r];
                for (o, &s) in out_seg.iter_mut().zip(src_seg) {
                    *o += t * s;
                }
            }
        }
    }
}

/// Convolves the columns of `src` within `roi`, writing into `dst`.
/// Iterates row-major over the output so memory access stays streaming.
///
/// Runs taps-outer for every output row: the source row index is clamped
/// once per (y, tap) — a no-op for interior rows — so the inner loop is
/// always a contiguous stride-1 accumulate over row slices and boundary
/// rows vectorize identically to interior ones. Per-pixel accumulation
/// order matches the unit tests' `convolve_cols_reference` bit for bit.
pub fn convolve_cols(src: &ImageF32, dst: &mut ImageF32, roi: Roi, k: &Kernel1D) {
    assert_eq!(src.dims(), dst.dims(), "src/dst dims must match");
    let roi = roi.clamp_to(src.width(), src.height());
    if roi.is_empty() {
        return;
    }
    let r = k.radius();
    let taps = k.taps();
    let h = src.height();
    let (lo, hi) = (roi.x, roi.right());
    for y in roi.y..roi.bottom() {
        let out_seg = &mut dst.row_mut(y)[lo..hi];
        out_seg.fill(0.0);
        for (j, &t) in taps.iter().enumerate() {
            let sy = (y + j).saturating_sub(r).min(h - 1);
            let src_seg = &src.row(sy)[lo..hi];
            for (o, &s) in out_seg.iter_mut().zip(src_seg) {
                *o += t * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    /// Reference (pre-optimisation) row convolution: per-pixel tap-inner loop
    /// with the boundary test inside the hot loop. Kept as the bit-exactness
    /// oracle for [`convolve_rows`].
    #[allow(clippy::needless_range_loop)] // ROI-offset indexing is clearer here
    fn convolve_rows_reference(src: &ImageF32, dst: &mut ImageF32, roi: Roi, k: &Kernel1D) {
        assert_eq!(src.dims(), dst.dims(), "src/dst dims must match");
        let roi = roi.clamp_to(src.width(), src.height());
        let r = k.radius() as isize;
        let taps = k.taps();
        let w = src.width() as isize;
        for y in roi.y..roi.bottom() {
            let row = src.row(y);
            let out = dst.row_mut(y);
            for x in roi.x..roi.right() {
                let mut acc = 0.0f32;
                let xi = x as isize;
                // fast path: fully interior
                if xi - r >= 0 && xi + r < w {
                    let base = (xi - r) as usize;
                    for (j, &t) in taps.iter().enumerate() {
                        acc += t * row[base + j];
                    }
                } else {
                    for (j, &t) in taps.iter().enumerate() {
                        let sx = (xi + j as isize - r).clamp(0, w - 1) as usize;
                        acc += t * row[sx];
                    }
                }
                out[x] = acc;
            }
        }
    }

    /// Reference (pre-optimisation) column convolution: taps-outer on interior
    /// rows, per-pixel gather on boundary rows. Kept as the bit-exactness
    /// oracle for [`convolve_cols`].
    #[allow(clippy::needless_range_loop)] // ROI-offset indexing is clearer here
    fn convolve_cols_reference(src: &ImageF32, dst: &mut ImageF32, roi: Roi, k: &Kernel1D) {
        assert_eq!(src.dims(), dst.dims(), "src/dst dims must match");
        let roi = roi.clamp_to(src.width(), src.height());
        let r = k.radius() as isize;
        let taps = k.taps();
        let h = src.height() as isize;
        for y in roi.y..roi.bottom() {
            let yi = y as isize;
            let interior = yi - r >= 0 && yi + r < h;
            let out = dst.row_mut(y);
            if interior {
                for x in roi.x..roi.right() {
                    out[x] = 0.0;
                }
                let base = (yi - r) as usize;
                for (j, &t) in taps.iter().enumerate() {
                    let srow = src.row(base + j);
                    for x in roi.x..roi.right() {
                        out[x] += t * srow[x];
                    }
                }
            } else {
                for x in roi.x..roi.right() {
                    let mut acc = 0.0f32;
                    for (j, &t) in taps.iter().enumerate() {
                        let sy = (yi + j as isize - r).clamp(0, h - 1) as usize;
                        acc += t * src.get(x, sy);
                    }
                    out[x] = acc;
                }
            }
        }
    }

    /// Rows over the halo-inflated ROI, then columns, as `hessian` composes
    /// the two passes.
    fn rows_then_cols(src: &ImageF32, dst: &mut ImageF32, roi: Roi, kx: &Kernel1D, ky: &Kernel1D) {
        let mut scratch: ImageF32 = Image::new(src.width(), src.height());
        let row_roi = roi.inflate(ky.radius(), src.width(), src.height());
        convolve_rows(src, &mut scratch, row_roi, kx);
        convolve_cols(&scratch, dst, roi, ky);
    }

    fn close(a: f32, b: f32, eps: f32) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn gaussian_is_normalized_and_symmetric() {
        for &sigma in &[0.8f32, 1.5, 3.0] {
            let k = Kernel1D::gaussian(sigma);
            assert!(
                close(k.sum(), 1.0, 1e-5),
                "sum {} for sigma {}",
                k.sum(),
                sigma
            );
            let taps = k.taps();
            let n = taps.len();
            for i in 0..n / 2 {
                assert!(close(taps[i], taps[n - 1 - i], 1e-7));
            }
        }
    }

    #[test]
    fn derivative_kernels_have_zero_dc() {
        let d1 = Kernel1D::gaussian_d1(1.2);
        let d2 = Kernel1D::gaussian_d2(1.2);
        assert!(d1.sum().abs() < 1e-4, "d1 sum {}", d1.sum());
        assert!(d2.sum().abs() < 1e-3, "d2 sum {}", d2.sum());
    }

    #[test]
    fn d1_is_antisymmetric_d2_symmetric() {
        let d1 = Kernel1D::gaussian_d1(1.0);
        let t = d1.taps();
        let n = t.len();
        for i in 0..n / 2 {
            assert!(close(t[i], -t[n - 1 - i], 1e-6));
        }
        assert!(close(t[n / 2], 0.0, 1e-7));
        let d2 = Kernel1D::gaussian_d2(1.0);
        let t = d2.taps();
        for i in 0..n / 2 {
            assert!(close(t[i], t[n - 1 - i], 1e-6));
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let _ = Kernel1D::new(vec![0.5, 0.5]);
    }

    #[test]
    fn smoothing_constant_image_is_identity() {
        let src: ImageF32 = Image::filled(16, 16, 42.0);
        let mut dst: ImageF32 = Image::new(16, 16);
        let g = Kernel1D::gaussian(1.5);
        rows_then_cols(&src, &mut dst, src.full_roi(), &g, &g);
        for y in 0..16 {
            for x in 0..16 {
                assert!(
                    close(dst.get(x, y), 42.0, 1e-3),
                    "pixel ({x},{y}) = {}",
                    dst.get(x, y)
                );
            }
        }
    }

    #[test]
    fn identity_kernel_copies() {
        let src = Image::from_fn(8, 8, |x, y| (x * y) as f32);
        let mut dst: ImageF32 = Image::new(8, 8);
        let id = Kernel1D::new(vec![0.0, 1.0, 0.0]);
        rows_then_cols(&src, &mut dst, src.full_roi(), &id, &id);
        assert_eq!(src, dst);
    }

    #[test]
    fn second_derivative_of_parabola_is_constant() {
        // f(x) = x^2 => f'' = 2; the gamma-normalized kernel returns
        // sigma^2 * f''(x) in its scale normalization, i.e. 2*sigma^2.
        let sigma = 1.5f32;
        let w = 41;
        let src = Image::from_fn(w, 5, |x, _| {
            let c = x as f32 - 20.0;
            c * c
        });
        let mut dst: ImageF32 = Image::new(w, 5);
        let d2 = Kernel1D::gaussian_d2(sigma);
        convolve_rows(&src, &mut dst, src.full_roi(), &d2);
        let expected = 2.0 * sigma * sigma;
        // interior pixel, away from borders
        assert!(
            close(dst.get(20, 2), expected, 0.05 * expected),
            "got {} expected {}",
            dst.get(20, 2),
            expected
        );
    }

    #[test]
    fn roi_convolution_only_touches_roi() {
        let src: ImageF32 = Image::filled(16, 16, 1.0);
        let mut dst: ImageF32 = Image::filled(16, 16, -1.0);
        let g = Kernel1D::gaussian(1.0);
        convolve_rows(&src, &mut dst, Roi::new(4, 4, 4, 4), &g);
        assert!(close(dst.get(5, 5), 1.0, 1e-4));
        assert_eq!(dst.get(0, 0), -1.0);
        assert_eq!(dst.get(12, 12), -1.0);
    }

    #[test]
    fn optimized_convolution_bit_identical_to_reference() {
        // The cache-aware rewrite must not change a single bit: per-pixel
        // FP accumulation order is preserved, so optimized and reference
        // paths agree exactly — including borders, narrow images (width or
        // height below the kernel support) and off-centre ROIs.
        let kernels = [
            Kernel1D::gaussian(0.8),
            Kernel1D::gaussian(2.5),
            Kernel1D::gaussian_d1(1.5),
            Kernel1D::gaussian_d2(4.0),
        ];
        let shapes = [(64usize, 48usize), (7, 64), (64, 7), (5, 5), (33, 1)];
        for k in &kernels {
            for &(w, h) in &shapes {
                let src =
                    Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 101) as f32 * 0.37 - 12.5);
                let rois = [
                    src.full_roi(),
                    Roi::new(0, 0, (w / 2).max(1), (h / 2).max(1)),
                    Roi::new(w / 3, h / 3, (w / 2).max(1), (h / 2).max(1)),
                ];
                for &roi in &rois {
                    let mut a: ImageF32 = Image::filled(w, h, f32::NAN);
                    let mut b: ImageF32 = Image::filled(w, h, f32::NAN);
                    convolve_rows(&src, &mut a, roi, k);
                    convolve_rows_reference(&src, &mut b, roi, k);
                    let roi_c = roi.clamp_to(w, h);
                    for y in roi_c.y..roi_c.bottom() {
                        for x in roi_c.x..roi_c.right() {
                            assert_eq!(
                                a.get(x, y).to_bits(),
                                b.get(x, y).to_bits(),
                                "rows {w}x{h} roi {roi:?} at ({x},{y}): {} vs {}",
                                a.get(x, y),
                                b.get(x, y)
                            );
                        }
                    }
                    convolve_cols(&src, &mut a, roi, k);
                    convolve_cols_reference(&src, &mut b, roi, k);
                    for y in roi_c.y..roi_c.bottom() {
                        for x in roi_c.x..roi_c.right() {
                            assert_eq!(
                                a.get(x, y).to_bits(),
                                b.get(x, y).to_bits(),
                                "cols {w}x{h} roi {roi:?} at ({x},{y}): {} vs {}",
                                a.get(x, y),
                                b.get(x, y)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stripe_convolution_matches_full_frame() {
        // Convolving stripe-by-stripe (with the built-in halo) must produce
        // exactly the same result as one full-frame convolution: this is the
        // invariant that makes data-parallel RDG correct.
        let src = Image::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 31) as f32);
        let g = Kernel1D::gaussian(1.4);
        let d2 = Kernel1D::gaussian_d2(1.4);

        let mut full: ImageF32 = Image::new(32, 32);
        rows_then_cols(&src, &mut full, src.full_roi(), &g, &d2);

        let mut striped: ImageF32 = Image::new(32, 32);
        for roi in src.full_roi().stripes(4) {
            rows_then_cols(&src, &mut striped, roi, &g, &d2);
        }
        for y in 0..32 {
            for x in 0..32 {
                assert!(
                    close(full.get(x, y), striped.get(x, y), 1e-5),
                    "mismatch at ({x},{y}): {} vs {}",
                    full.get(x, y),
                    striped.get(x, y)
                );
            }
        }
    }
}
