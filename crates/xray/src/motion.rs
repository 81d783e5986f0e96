//! Cardiac and respiratory motion model.
//!
//! During a live angioplasty procedure the coronary anatomy moves with the
//! heart beat (~70 bpm) and breathing (~15/min), plus small table/patient
//! jitter. The model produces a per-frame rigid displacement and rotation
//! that the renderer applies to all scene geometry, and that the
//! registration stage of the pipeline must compensate.

use rand::Rng;

/// Parameters of the composite motion model.
#[derive(Debug, Clone)]
pub struct MotionConfig {
    /// Standard deviation of frame-to-frame jitter, pixels.
    pub jitter_std: f64,
}

impl Default for MotionConfig {
    fn default() -> Self {
        Self { jitter_std: 0.4 }
    }
}

/// Rigid scene motion of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionState {
    /// Scene translation, pixels.
    pub dx: f64,
    pub dy: f64,
    /// Scene rotation about the frame center, radians.
    pub rot: f64,
}

impl MotionState {
    /// No motion.
    pub fn zero() -> Self {
        Self {
            dx: 0.0,
            dy: 0.0,
            rot: 0.0,
        }
    }
}

/// Frame rate, Hz (the paper's application runs at 30 Hz).
const FRAME_RATE: f64 = 30.0;
/// Cardiac frequency, Hz (~1.2 Hz = 72 bpm).
const CARDIAC_HZ: f64 = 1.2;
/// Cardiac displacement amplitude, pixels.
const CARDIAC_AMP: f64 = 6.0;
/// Respiratory frequency, Hz (~0.25 Hz = 15/min).
const RESPIRATORY_HZ: f64 = 0.25;
/// Respiratory displacement amplitude, pixels.
const RESPIRATORY_AMP: f64 = 10.0;
/// Amplitude of cardiac rotation, radians.
const ROTATION_AMP: f64 = 0.03;

/// Evaluates the motion model at frame index `frame`, drawing jitter from
/// `rng` (callers seed it deterministically per frame).
pub fn motion_at(cfg: &MotionConfig, frame: usize, rng: &mut impl Rng) -> MotionState {
    let t = frame as f64 / FRAME_RATE;
    let cardiac = (2.0 * std::f64::consts::PI * CARDIAC_HZ * t).sin();
    // second harmonic gives the sharp systolic kick of real cardiac motion
    let cardiac2 = (4.0 * std::f64::consts::PI * CARDIAC_HZ * t + 0.8).sin();
    let resp = (2.0 * std::f64::consts::PI * RESPIRATORY_HZ * t).sin();
    let jx: f64 = rng.gen_range(-1.0..1.0) * cfg.jitter_std;
    let jy: f64 = rng.gen_range(-1.0..1.0) * cfg.jitter_std;
    MotionState {
        dx: CARDIAC_AMP * (0.7 * cardiac + 0.3 * cardiac2) + jx,
        dy: RESPIRATORY_AMP * resp + 0.4 * CARDIAC_AMP * cardiac + jy,
        rot: ROTATION_AMP * cardiac,
    }
}

/// Applies the motion to a point about the given center.
pub fn apply_motion(m: &MotionState, x: f64, y: f64, cx: f64, cy: f64) -> (f64, f64) {
    let (s, c) = m.rot.sin_cos();
    let dx = x - cx;
    let dy = y - cy;
    (c * dx - s * dy + cx + m.dx, s * dx + c * dy + cy + m.dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn motion_is_bounded_by_amplitudes() {
        let cfg = MotionConfig::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for f in 0..300 {
            let m = motion_at(&cfg, f, &mut rng);
            let bound = CARDIAC_AMP + RESPIRATORY_AMP + 3.0 * cfg.jitter_std + 1.0;
            assert!(m.dx.hypot(m.dy) < 2.0 * bound, "frame {f}: {:?}", m);
            assert!(m.rot.abs() <= ROTATION_AMP + 1e-9);
        }
    }

    #[test]
    fn motion_is_periodic_without_jitter() {
        let cfg = MotionConfig { jitter_std: 0.0 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // cardiac 1.2 Hz at 30 fps: period 25 frames; respiratory 0.25 Hz:
        // period 120 frames; common period 600 frames
        let a = motion_at(&cfg, 10, &mut rng);
        let b = motion_at(&cfg, 610, &mut rng);
        assert!((a.dx - b.dx).abs() < 1e-9);
        assert!((a.dy - b.dy).abs() < 1e-9);
        assert!((a.rot - b.rot).abs() < 1e-9);
    }

    #[test]
    fn motion_actually_moves() {
        let cfg = MotionConfig::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let states: Vec<MotionState> = (0..60).map(|f| motion_at(&cfg, f, &mut rng)).collect();
        let max = states.iter().map(|m| m.dx.hypot(m.dy)).fold(0.0, f64::max);
        assert!(max > 3.0, "max displacement {}", max);
    }

    #[test]
    fn apply_motion_translation_only() {
        let m = MotionState {
            dx: 3.0,
            dy: -2.0,
            rot: 0.0,
        };
        let (x, y) = apply_motion(&m, 10.0, 10.0, 50.0, 50.0);
        assert!((x - 13.0).abs() < 1e-12);
        assert!((y - 8.0).abs() < 1e-12);
    }

    #[test]
    fn apply_motion_rotation_about_center() {
        let m = MotionState {
            dx: 0.0,
            dy: 0.0,
            rot: std::f64::consts::FRAC_PI_2,
        };
        let (x, y) = apply_motion(&m, 60.0, 50.0, 50.0, 50.0);
        assert!((x - 50.0).abs() < 1e-9, "x {}", x);
        assert!((y - 60.0).abs() < 1e-9, "y {}", y);
        // center is a fixed point
        let (cx, cy) = apply_motion(&m, 50.0, 50.0, 50.0, 50.0);
        assert!((cx - 50.0).abs() < 1e-12 && (cy - 50.0).abs() < 1e-12);
    }
}
