//! REG — temporal registration.
//!
//! Aligns the markers of the current frame with a reference couple using a
//! rigid (rotation + translation) transform, and validates the alignment
//! with a motion criterion based on the temporal difference between two
//! succeeding images of the sequence (Section 3). The registration outcome
//! drives the "REG. SUCCESSFUL" switch of the flow graph: only on success
//! do the enhancement and zoom stages run.

use crate::couples::Couple;
use crate::image::{ImageU16, Roi};

/// A 2-D rigid transform `p' = R(theta) * (p - c) + c + t` about center `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidTransform {
    /// Rotation angle, radians.
    pub theta: f64,
    /// Rotation center (reference couple center).
    pub cx: f64,
    pub cy: f64,
    /// Translation after rotation.
    pub tx: f64,
    pub ty: f64,
}

impl RigidTransform {
    /// Identity transform about the origin.
    pub fn identity() -> Self {
        Self {
            theta: 0.0,
            cx: 0.0,
            cy: 0.0,
            tx: 0.0,
            ty: 0.0,
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        let (s, c) = self.theta.sin_cos();
        let dx = x - self.cx;
        let dy = y - self.cy;
        (
            c * dx - s * dy + self.cx + self.tx,
            s * dx + c * dy + self.cy + self.ty,
        )
    }

    /// Applies the inverse transform to a point (for inverse warping).
    pub fn apply_inverse(&self, x: f64, y: f64) -> (f64, f64) {
        let (s, c) = self.theta.sin_cos();
        let dx = x - self.cx - self.tx;
        let dy = y - self.cy - self.ty;
        (c * dx + s * dy + self.cx, -s * dx + c * dy + self.cy)
    }

    /// Magnitude of the translation component.
    pub fn translation_magnitude(&self) -> f64 {
        (self.tx * self.tx + self.ty * self.ty).sqrt()
    }
}

/// Configuration of the registration task.
#[derive(Debug, Clone)]
pub struct RegConfig {
    /// Maximum plausible marker motion between frames, pixels; larger
    /// estimated motions mark the registration as failed (mis-tracking).
    pub max_motion: f64,
    /// Maximum mean absolute temporal difference (after registration, on a
    /// decimated grid) accepted as "same anatomy"; larger values indicate a
    /// scene change (contrast bolus, panning) and fail the registration.
    pub max_temporal_diff: f64,
}

impl Default for RegConfig {
    fn default() -> Self {
        Self {
            max_motion: 40.0,
            max_temporal_diff: 220.0,
        }
    }
}

/// Result of the registration task.
#[derive(Debug, Clone)]
pub struct RegOutput {
    /// Estimated transform mapping current-frame coordinates onto the
    /// reference frame.
    pub transform: RigidTransform,
    /// Whether the registration passed all validity gates (drives the
    /// "REG. SUCCESSFUL" switch).
    pub success: bool,
    /// Residual marker mismatch after alignment, pixels.
    pub residual: f64,
    /// Mean absolute temporal difference on the probe grid.
    pub temporal_diff: f64,
}

/// Estimates the rigid transform that maps `current` onto `reference`.
///
/// The two marker pairs give an exact rotation (axis angles) and
/// translation (center displacement); the residual measures how well the
/// inter-marker distances agree (a proxy for mis-detection).
fn estimate_transform(current: &Couple, reference: &Couple) -> (RigidTransform, f64) {
    // Orient both couples consistently: order endpoints so the pairing
    // minimizes total endpoint distance.
    let direct = current.a.distance(&reference.a) + current.b.distance(&reference.b);
    let swapped = current.a.distance(&reference.b) + current.b.distance(&reference.a);
    let (ca, cb) = if direct <= swapped {
        (current.a, current.b)
    } else {
        (current.b, current.a)
    };

    let cur_angle = (cb.y - ca.y).atan2(cb.x - ca.x);
    let ref_angle = (reference.b.y - reference.a.y).atan2(reference.b.x - reference.a.x);
    let mut theta = ref_angle - cur_angle;
    // wrap to (-pi, pi]
    while theta > std::f64::consts::PI {
        theta -= 2.0 * std::f64::consts::PI;
    }
    while theta <= -std::f64::consts::PI {
        theta += 2.0 * std::f64::consts::PI;
    }

    let (ccx, ccy) = ((ca.x + cb.x) * 0.5, (ca.y + cb.y) * 0.5);
    let (rcx, rcy) = reference.center();
    let t = RigidTransform {
        theta,
        cx: ccx,
        cy: ccy,
        tx: rcx - ccx,
        ty: rcy - ccy,
    };

    // residual: how far the transformed current markers land from reference
    let (ax, ay) = t.apply(ca.x, ca.y);
    let (bx, by) = t.apply(cb.x, cb.y);
    let residual = (((ax - reference.a.x).powi(2) + (ay - reference.a.y).powi(2)).sqrt()
        + ((bx - reference.b.x).powi(2) + (by - reference.b.y).powi(2)).sqrt())
        * 0.5;
    (t, residual)
}

/// Decimation step of the temporal-difference probe.
const PROBE_STEP: usize = 8;

/// Mean absolute difference between `a` (warped by `t`) and `b` on a
/// decimated grid inside `roi`. Cheap motion criterion of the paper.
fn temporal_difference(a: &ImageU16, b: &ImageU16, t: &RigidTransform, roi: Roi) -> f64 {
    let roi = roi.clamp_to(a.width().min(b.width()), a.height().min(b.height()));
    let mut total = 0.0f64;
    let mut count = 0usize;
    // Hoisted `apply_inverse`: sin_cos once per call, the dy-dependent terms
    // once per row. Same association as the per-pixel form, so `sx`/`sy` are
    // bit-identical to calling `t.apply_inverse` at every grid point.
    let (s, c) = t.theta.sin_cos();
    let ns = -s;
    let mut y = roi.y;
    while y < roi.bottom() {
        let dy = y as f64 - t.cy - t.ty;
        let (t1, t2) = (s * dy, c * dy);
        let mut x = roi.x;
        while x < roi.right() {
            let dx = x as f64 - t.cx - t.tx;
            let sx = (c * dx + t1) + t.cx;
            let sy = (ns * dx + t2) + t.cy;
            let v = a.get_clamped(sx.round() as isize, sy.round() as isize) as f64;
            total += (v - b.get(x, y) as f64).abs();
            count += 1;
            x += PROBE_STEP;
        }
        y += PROBE_STEP;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Maximum residual marker mismatch after alignment, pixels.
const MAX_RESIDUAL: f64 = 6.0;

/// Full registration: transform estimation + validity gates.
pub fn register(
    current_frame: &ImageU16,
    reference_frame: &ImageU16,
    current: &Couple,
    reference: &Couple,
    roi: Roi,
    cfg: &RegConfig,
) -> RegOutput {
    let (transform, residual) = estimate_transform(current, reference);
    let temporal_diff = temporal_difference(current_frame, reference_frame, &transform, roi);
    let success = residual <= MAX_RESIDUAL
        && transform.translation_magnitude() <= cfg.max_motion
        && temporal_diff <= cfg.max_temporal_diff;
    RegOutput {
        transform,
        success,
        residual,
        temporal_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::markers::Marker;

    fn mk(x: f64, y: f64) -> Marker {
        Marker {
            x,
            y,
            strength: 100.0,
            scale: 2.0,
        }
    }

    fn couple(ax: f64, ay: f64, bx: f64, by: f64) -> Couple {
        Couple {
            a: mk(ax, ay),
            b: mk(bx, by),
            score: 0.0,
        }
    }

    #[test]
    fn identity_when_couples_coincide() {
        let c = couple(10.0, 10.0, 30.0, 10.0);
        let (t, residual) = estimate_transform(&c, &c);
        assert!(t.theta.abs() < 1e-12);
        assert!(t.translation_magnitude() < 1e-12);
        assert!(residual < 1e-12);
    }

    #[test]
    fn pure_translation_recovered() {
        let cur = couple(10.0, 10.0, 30.0, 10.0);
        let refc = couple(15.0, 13.0, 35.0, 13.0);
        let (t, residual) = estimate_transform(&cur, &refc);
        assert!((t.tx - 5.0).abs() < 1e-9);
        assert!((t.ty - 3.0).abs() < 1e-9);
        assert!(residual < 1e-9);
        let (x, y) = t.apply(10.0, 10.0);
        assert!((x - 15.0).abs() < 1e-9 && (y - 13.0).abs() < 1e-9);
    }

    #[test]
    fn pure_rotation_recovered() {
        let cur = couple(-10.0, 0.0, 10.0, 0.0);
        // rotate by 90 degrees about origin
        let refc = couple(0.0, -10.0, 0.0, 10.0);
        let (t, residual) = estimate_transform(&cur, &refc);
        assert!(
            (t.theta.abs() - std::f64::consts::FRAC_PI_2).abs() < 1e-9,
            "theta {}",
            t.theta
        );
        assert!(residual < 1e-9);
    }

    #[test]
    fn endpoint_swap_handled() {
        let cur = couple(10.0, 10.0, 30.0, 10.0);
        let refc = couple(30.0, 10.0, 10.0, 10.0); // same couple, swapped
        let (t, residual) = estimate_transform(&cur, &refc);
        assert!(residual < 1e-9, "residual {}", residual);
        assert!(t.translation_magnitude() < 1e-9);
    }

    #[test]
    fn inverse_round_trips() {
        let t = RigidTransform {
            theta: 0.3,
            cx: 50.0,
            cy: 40.0,
            tx: 7.0,
            ty: -3.0,
        };
        let (x, y) = t.apply(12.0, 34.0);
        let (bx, by) = t.apply_inverse(x, y);
        assert!((bx - 12.0).abs() < 1e-9 && (by - 34.0).abs() < 1e-9);
    }

    #[test]
    fn length_mismatch_raises_residual() {
        let cur = couple(0.0, 0.0, 20.0, 0.0);
        let refc = couple(0.0, 0.0, 30.0, 0.0); // different marker spacing
        let (_, residual) = estimate_transform(&cur, &refc);
        assert!(residual > 2.0, "residual {}", residual);
    }

    #[test]
    fn registration_succeeds_on_consistent_frames() {
        let img = Image::from_fn(64, 64, |x, y| ((x * 3 + y * 5) % 997) as u16);
        let cur = couple(20.0, 20.0, 40.0, 20.0);
        let out = register(
            &img,
            &img,
            &cur,
            &cur,
            img.full_roi(),
            &RegConfig::default(),
        );
        assert!(out.success);
        assert!(out.temporal_diff < 1.0);
    }

    #[test]
    fn registration_fails_on_excessive_motion() {
        let img = Image::from_fn(64, 64, |x, y| ((x + y) % 100) as u16);
        let cur = couple(0.0, 0.0, 20.0, 0.0);
        let refc = couple(100.0, 100.0, 120.0, 100.0);
        let cfg = RegConfig {
            max_motion: 10.0,
            ..Default::default()
        };
        let out = register(&img, &img, &cur, &refc, img.full_roi(), &cfg);
        assert!(!out.success);
    }

    #[test]
    fn registration_fails_on_scene_change() {
        let a = Image::from_fn(64, 64, |_, _| 0u16);
        let b = Image::from_fn(64, 64, |_, _| 4000u16);
        let cur = couple(20.0, 20.0, 40.0, 20.0);
        let cfg = RegConfig {
            max_temporal_diff: 100.0,
            ..Default::default()
        };
        let out = register(&a, &b, &cur, &cur, a.full_roi(), &cfg);
        assert!(!out.success);
        assert!(out.temporal_diff > 1000.0);
    }
}
