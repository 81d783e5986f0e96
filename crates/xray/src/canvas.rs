//! Floating-point drawing canvas for scene rendering.
//!
//! The renderer composes the scene in f32 (background minus absorbers:
//! vessels, wire, markers, stent) and converts to the 16-bit detector
//! format at the end, after the noise model. Shapes are lists of Gaussian
//! absorber stamps, and two row kernels paint them and the tissue shading
//! into any band of full-width rows. A [`Canvas`] is their whole-image
//! case; the sequence renderer runs them per row band on the stripe pool.

use imaging::image::{ImageF32, ImageU16};

/// One Gaussian absorber: `depth` counts subtracted at the sub-pixel
/// centre `(cx, cy)`, falling off with `sigma`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) cx: f64,
    pub(crate) cy: f64,
    pub(crate) depth: f32,
    pub(crate) sigma: f32,
}

impl Stamp {
    /// Subtracts the stamp from `rows`, the full-width rows of a
    /// `width`-wide image that start at row `y0`, clipped to those rows.
    pub(crate) fn apply_rows(&self, rows: &mut [f32], width: usize, y0: usize) {
        if rows.is_empty() {
            return;
        }
        let Stamp { cx, cy, .. } = *self;
        let r = (3.0 * self.sigma).ceil() as isize + 1;
        let x0 = (cx.floor() as isize - r).max(0);
        let ya = (cy.floor() as isize - r).max(y0 as isize);
        let x1 = (cx.ceil() as isize + r).min(width as isize - 1);
        let yb = (cy.ceil() as isize + r).min((y0 + rows.len() / width) as isize - 1);
        let s2 = 2.0 * self.sigma * self.sigma;
        for y in ya..=yb {
            let row = &mut rows[(y as usize - y0) * width..][..width];
            let dy = y as f64 - cy;
            for x in x0..=x1 {
                let dx = x as f64 - cx;
                let d2 = (dx * dx + dy * dy) as f32;
                row[x as usize] -= self.depth * (-d2 / s2).exp();
            }
        }
    }
}

/// The stamps of a dark line with a Gaussian cross-section from `(x0, y0)`
/// to `(x1, y1)`, placed along the segment at sub-pixel steps.
///
/// Stamp depth is normalized by the step overlap so the line depth is
/// approximately `depth` regardless of orientation.
pub(crate) fn line_stamps(
    (x0, y0): (f64, f64),
    (x1, y1): (f64, f64),
    depth: f32,
    sigma: f32,
) -> impl Iterator<Item = Stamp> {
    let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
    let step = (sigma as f64 * 0.5).max(0.25);
    let n = (len / step).ceil().max(1.0) as usize;
    // Overlapping stamps along a line sum to roughly sqrt(2*pi)*sigma/step
    // times the single-stamp peak; normalize so the trench depth ≈ depth.
    let overlap = (std::f64::consts::TAU.sqrt() * sigma as f64 / step) as f32;
    let depth = depth / overlap.max(1.0);
    (0..=n).map(move |i| {
        let t = i as f64 / n as f64;
        Stamp {
            cx: x0 + (x1 - x0) * t,
            cy: y0 + (y1 - y0) * t,
            depth,
            sigma,
        }
    })
}

/// The stamps of a polyline: [`line_stamps`] of consecutive segments
/// through `points`.
pub(crate) fn polyline_stamps(
    points: &[(f64, f64)],
    depth: f32,
    sigma: f32,
) -> impl Iterator<Item = Stamp> + '_ {
    points
        .windows(2)
        .flat_map(move |w| line_stamps(w[0], w[1], depth, sigma))
}

/// Adds a large-scale smooth intensity field (tissue shading) to `rows`,
/// the full-width rows of a `width` × `height` image that start at row
/// `y0`: the sum of a vertical gradient and a broad radial vignette.
pub(crate) fn shade_rows(
    rows: &mut [f32],
    (width, height): (usize, usize),
    y0: usize,
    gradient: f32,
    vignette: f32,
) {
    if rows.is_empty() {
        return;
    }
    let cx = width as f32 / 2.0;
    let cy = height as f32 / 2.0;
    let rmax = (cx * cx + cy * cy).max(1.0);
    for (y, row) in (y0..).zip(rows.chunks_exact_mut(width)) {
        let gy = gradient * (y as f32 / height.max(1) as f32 - 0.5);
        for (x, v) in row.iter_mut().enumerate() {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let r2 = (dx * dx + dy * dy) / rmax;
            *v += gy - vignette * r2;
        }
    }
}

/// An f32 canvas with stamp-based drawing primitives.
#[derive(Debug, Clone)]
pub struct Canvas {
    img: ImageF32,
}

impl Canvas {
    /// Creates a canvas filled with `background`.
    pub fn new(width: usize, height: usize, background: f32) -> Self {
        Self {
            img: ImageF32::filled(width, height, background),
        }
    }

    /// Canvas width.
    pub fn width(&self) -> usize {
        self.img.width()
    }

    /// Canvas height.
    pub fn height(&self) -> usize {
        self.img.height()
    }

    /// Direct pixel access (tests).
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.img.get(x, y)
    }

    /// Applies `stamps` in order.
    pub(crate) fn apply(&mut self, stamps: impl IntoIterator<Item = Stamp>) {
        let width = self.img.width();
        for stamp in stamps {
            stamp.apply_rows(self.img.as_mut_slice(), width, 0);
        }
    }

    /// Subtracts a Gaussian absorber stamp of the given `depth` and `sigma`
    /// centered at `(cx, cy)` (sub-pixel).
    pub fn stamp_absorber(&mut self, cx: f64, cy: f64, depth: f32, sigma: f32) {
        self.apply([Stamp {
            cx,
            cy,
            depth,
            sigma,
        }]);
    }

    /// Draws a dark line with a Gaussian cross-section from `(x0, y0)` to
    /// `(x1, y1)` by stamping along the segment at sub-pixel steps.
    ///
    /// Stamp depth is normalized by the step overlap so the line depth is
    /// approximately `depth` regardless of orientation.
    pub fn draw_line(&mut self, x0: f64, y0: f64, x1: f64, y1: f64, depth: f32, sigma: f32) {
        self.apply(line_stamps((x0, y0), (x1, y1), depth, sigma));
    }

    /// Adds a large-scale smooth intensity field (tissue shading): the sum
    /// of a vertical gradient and a broad radial vignette.
    pub fn add_shading(&mut self, gradient: f32, vignette: f32) {
        let dims = self.img.dims();
        shade_rows(self.img.as_mut_slice(), dims, 0, gradient, vignette);
    }

    /// Converts to the u16 detector format with clamping.
    pub fn to_u16(&self) -> ImageU16 {
        self.img.to_u16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_darkens_center_most() {
        let mut c = Canvas::new(32, 32, 1000.0);
        c.stamp_absorber(16.0, 16.0, 300.0, 2.0);
        assert!((c.get(16, 16) - 700.0).abs() < 1.0);
        assert!(c.get(16, 16) < c.get(12, 16));
        assert!(c.get(0, 0) > 999.9);
    }

    #[test]
    fn stamp_at_border_does_not_panic() {
        let mut c = Canvas::new(16, 16, 1000.0);
        c.stamp_absorber(0.0, 0.0, 300.0, 2.0);
        c.stamp_absorber(15.9, 15.9, 300.0, 2.0);
        c.stamp_absorber(-5.0, 8.0, 300.0, 2.0);
        assert!(c.get(0, 0) < 1000.0);
    }

    #[test]
    fn line_depth_is_orientation_independent() {
        let mut h = Canvas::new(64, 64, 1000.0);
        h.draw_line(8.0, 32.0, 56.0, 32.0, 400.0, 1.5);
        let mut v = Canvas::new(64, 64, 1000.0);
        v.draw_line(32.0, 8.0, 32.0, 56.0, 400.0, 1.5);
        let hd = 1000.0 - h.get(32, 32);
        let vd = 1000.0 - v.get(32, 32);
        assert!(hd > 100.0, "horizontal trench too shallow: {hd}");
        assert!((hd - vd).abs() < 0.25 * hd, "h {hd} vs v {vd}");
    }

    #[test]
    fn diagonal_line_also_draws() {
        let mut c = Canvas::new(64, 64, 1000.0);
        c.draw_line(8.0, 8.0, 56.0, 56.0, 400.0, 1.5);
        assert!(c.get(32, 32) < 900.0);
        assert!(c.get(8, 56) > 999.0);
    }

    #[test]
    fn polyline_connects_segments() {
        let mut c = Canvas::new(64, 64, 1000.0);
        c.apply(polyline_stamps(
            &[(8.0, 8.0), (32.0, 32.0), (56.0, 8.0)],
            400.0,
            1.5,
        ));
        assert!(c.get(20, 20) < 900.0);
        assert!(c.get(44, 20) < 900.0);
    }

    #[test]
    fn shading_is_smooth_and_centered() {
        let mut c = Canvas::new(64, 64, 1000.0);
        c.add_shading(100.0, 200.0);
        // corners darker than center (vignette)
        assert!(c.get(0, 0) < c.get(32, 32));
        // bottom brighter than top (gradient)
        assert!(c.get(32, 60) > c.get(32, 4));
    }

    #[test]
    fn to_u16_clamps() {
        assert_eq!(Canvas::new(4, 4, -100.0).to_u16().get(0, 0), 0);
        assert_eq!(Canvas::new(4, 4, 1e9).to_u16().get(0, 0), u16::MAX);
    }
}
