//! ROI EST — region-of-interest estimation.
//!
//! Once a marker couple is found, a region of interest is estimated around
//! it in the original image (Section 3). The ROI size is data-dependent —
//! it scales with the marker separation and the recent motion — which is
//! dynamic aspect (1) of the application and the independent variable of
//! the paper's Fig. 6 (processing time vs. ROI size).

use crate::couples::Couple;
use crate::image::Roi;

/// Margin around the marker couple as a multiple of the couple length.
const MARGIN_FACTOR: f64 = 1.0;
/// Additional absolute margin, pixels.
const MARGIN_PIXELS: f64 = 16.0;
/// Extra margin per pixel of recent motion (motion-adaptive growth).
const MOTION_FACTOR: f64 = 2.0;

/// Configuration of ROI estimation.
#[derive(Debug, Clone)]
pub struct RoiEstConfig {
    /// Minimum ROI edge length, pixels.
    pub min_size: usize,
    /// Maximum ROI edge length, pixels (caps degenerate detections).
    pub max_size: usize,
}

impl Default for RoiEstConfig {
    fn default() -> Self {
        Self {
            min_size: 48,
            max_size: 640,
        }
    }
}

/// Estimates the ROI for a marker couple inside a `width x height` frame.
///
/// `recent_motion` is the magnitude of the last registered displacement
/// (pixels/frame); faster-moving anatomy gets a larger safety margin.
pub fn estimate_roi(
    couple: &Couple,
    recent_motion: f64,
    width: usize,
    height: usize,
    cfg: &RoiEstConfig,
) -> Roi {
    let (cx, cy) = couple.center();
    let len = couple.length();
    let half =
        (len * (0.5 + MARGIN_FACTOR) + MARGIN_PIXELS + MOTION_FACTOR * recent_motion.max(0.0))
            .max(cfg.min_size as f64 / 2.0)
            .min(cfg.max_size as f64 / 2.0);

    let x0 = (cx - half).floor().max(0.0) as usize;
    let y0 = (cy - half).floor().max(0.0) as usize;
    let x1 = ((cx + half).ceil() as usize).min(width);
    let y1 = ((cy + half).ceil() as usize).min(height);
    Roi::new(x0, y0, x1.saturating_sub(x0), y1.saturating_sub(y0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markers::Marker;

    fn couple(ax: f64, ay: f64, bx: f64, by: f64) -> Couple {
        Couple {
            a: Marker {
                x: ax,
                y: ay,
                strength: 1.0,
                scale: 2.0,
            },
            b: Marker {
                x: bx,
                y: by,
                strength: 1.0,
                scale: 2.0,
            },
            score: 0.0,
        }
    }

    #[test]
    fn roi_contains_both_markers() {
        let c = couple(100.0, 100.0, 140.0, 120.0);
        let roi = estimate_roi(&c, 0.0, 512, 512, &RoiEstConfig::default());
        assert!(roi.contains(100, 100));
        assert!(roi.contains(140, 120));
    }

    #[test]
    fn roi_is_centered_on_couple() {
        let c = couple(200.0, 200.0, 240.0, 200.0);
        let roi = estimate_roi(&c, 0.0, 512, 512, &RoiEstConfig::default());
        let rcx = roi.x as f64 + roi.width as f64 / 2.0;
        let rcy = roi.y as f64 + roi.height as f64 / 2.0;
        assert!((rcx - 220.0).abs() <= 1.5, "center x {}", rcx);
        assert!((rcy - 200.0).abs() <= 1.5, "center y {}", rcy);
    }

    #[test]
    fn roi_grows_with_motion() {
        let c = couple(200.0, 200.0, 240.0, 200.0);
        let cfg = RoiEstConfig::default();
        let still = estimate_roi(&c, 0.0, 512, 512, &cfg);
        let moving = estimate_roi(&c, 10.0, 512, 512, &cfg);
        assert!(moving.area() > still.area());
    }

    #[test]
    fn roi_grows_with_couple_length() {
        let cfg = RoiEstConfig::default();
        let short = estimate_roi(&couple(200.0, 200.0, 220.0, 200.0), 0.0, 512, 512, &cfg);
        let long = estimate_roi(&couple(200.0, 200.0, 280.0, 200.0), 0.0, 512, 512, &cfg);
        assert!(long.area() > short.area());
    }

    #[test]
    fn roi_clamps_at_frame_border() {
        let c = couple(5.0, 5.0, 25.0, 5.0);
        let roi = estimate_roi(&c, 0.0, 512, 512, &RoiEstConfig::default());
        assert_eq!(roi.x, 0);
        assert_eq!(roi.y, 0);
        assert!(roi.right() <= 512 && roi.bottom() <= 512);
    }

    #[test]
    fn roi_respects_min_and_max_size() {
        let cfg = RoiEstConfig {
            min_size: 100,
            max_size: 120,
        };
        let tiny = estimate_roi(&couple(256.0, 256.0, 258.0, 256.0), 0.0, 512, 512, &cfg);
        assert!(tiny.width >= 100, "width {}", tiny.width);
        let huge = estimate_roi(&couple(100.0, 256.0, 400.0, 256.0), 50.0, 512, 512, &cfg);
        assert!(huge.width <= 121, "width {}", huge.width);
    }
}
