//! Floating-point drawing canvas for scene rendering.
//!
//! The renderer composes the scene in f32 (background minus absorbers:
//! vessels, wire, markers, stent) and converts to the 16-bit detector
//! format at the end, after the noise model.

use imaging::image::{ImageF32, ImageU16};

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

    /// Subtracts a Gaussian absorber stamp of the given `depth` and `sigma`
    /// centered at `(cx, cy)` (sub-pixel).
    pub fn stamp_absorber(&mut self, cx: f64, cy: f64, depth: f32, sigma: f32) {
        let r = (3.0 * sigma).ceil() as isize + 1;
        let x0 = (cx.floor() as isize - r).max(0);
        let y0 = (cy.floor() as isize - r).max(0);
        let x1 = (cx.ceil() as isize + r).min(self.img.width() as isize - 1);
        let y1 = (cy.ceil() as isize + r).min(self.img.height() as isize - 1);
        let s2 = 2.0 * sigma * sigma;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let d2 = (dx * dx + dy * dy) as f32;
                let v = self.img.get(x as usize, y as usize);
                self.img
                    .set(x as usize, y as usize, v - depth * (-d2 / s2).exp());
            }
        }
    }

    /// Draws a dark line with a Gaussian cross-section from `(x0, y0)` to
    /// `(x1, y1)` by stamping along the segment at sub-pixel steps.
    ///
    /// Stamp depth is normalized by the step overlap so the line depth is
    /// approximately `depth` regardless of orientation.
    pub fn draw_line(&mut self, x0: f64, y0: f64, x1: f64, y1: f64, depth: f32, sigma: f32) {
        let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        let step = (sigma as f64 * 0.5).max(0.25);
        let n = (len / step).ceil().max(1.0) as usize;
        // Overlapping stamps along a line sum to roughly sqrt(2*pi)*sigma/step
        // times the single-stamp peak; normalize so the trench depth ≈ depth.
        let overlap = (std::f64::consts::TAU.sqrt() * sigma as f64 / step) as f32;
        let d = depth / overlap.max(1.0);
        for i in 0..=n {
            let t = i as f64 / n as f64;
            self.stamp_absorber(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t, d, sigma);
        }
    }

    /// Draws a polyline (consecutive segments through `points`).
    pub fn draw_polyline(&mut self, points: &[(f64, f64)], depth: f32, sigma: f32) {
        for w in points.windows(2) {
            self.draw_line(w[0].0, w[0].1, w[1].0, w[1].1, depth, sigma);
        }
    }

    /// Adds a large-scale smooth intensity field (tissue shading): the sum
    /// of a vertical gradient and a broad radial vignette.
    pub fn add_shading(&mut self, gradient: f32, vignette: f32) {
        let (w, h) = (self.img.width(), self.img.height());
        let cx = w as f32 / 2.0;
        let cy = h as f32 / 2.0;
        let rmax = (cx * cx + cy * cy).max(1.0);
        for y in 0..h {
            let gy = gradient * (y as f32 / h.max(1) as f32 - 0.5);
            let row = self.img.row_mut(y);
            for (x, v) in row.iter_mut().enumerate() {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                let r2 = (dx * dx + dy * dy) / rmax;
                *v += gy - vignette * r2;
            }
        }
    }

    /// Converts to the u16 detector format with clamping.
    pub fn to_u16(&self) -> ImageU16 {
        self.img.to_u16()
    }

    /// Mutable access to the raw image (noise model).
    pub fn raw_mut(&mut self) -> &mut ImageF32 {
        &mut self.img
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
        c.draw_polyline(&[(8.0, 8.0), (32.0, 32.0), (56.0, 8.0)], 400.0, 1.5);
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
        let mut c = Canvas::new(4, 4, -100.0);
        let u = c.to_u16();
        assert_eq!(u.get(0, 0), 0);
        *c.raw_mut() = imaging::image::ImageF32::filled(4, 4, 1e9);
        assert_eq!(c.to_u16().get(0, 0), u16::MAX);
    }
}
