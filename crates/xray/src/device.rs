//! The interventional device: balloon markers, guide wire and stent.
//!
//! Two radio-opaque balloon markers at a known separation (the a-priori
//! distance used by CPLS SEL), a guide wire running through them, and a
//! faint stent mesh between them.

use crate::canvas::{line_stamps, polyline_stamps, Stamp};
use crate::motion::{apply_motion, MotionState};

/// Geometry and contrast of the device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Marker separation, pixels (the a-priori couples distance).
    pub marker_distance: f64,
    /// Device center in the reference (motion-free) frame.
    pub center: (f64, f64),
    /// Device axis orientation, radians.
    pub angle: f64,
    /// Whether the stent is deployed (drawn).
    pub stent_deployed: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            marker_distance: 24.0,
            center: (0.0, 0.0),
            angle: 0.3,
            stent_deployed: true,
        }
    }
}

/// Positions of the two markers under a given motion state.
fn marker_positions(
    cfg: &DeviceConfig,
    motion: &MotionState,
    frame_center: (f64, f64),
) -> ((f64, f64), (f64, f64)) {
    let (cx, cy) = cfg.center;
    let half = cfg.marker_distance / 2.0;
    let (s, c) = cfg.angle.sin_cos();
    let a = (cx - half * c, cy - half * s);
    let b = (cx + half * c, cy + half * s);
    (
        apply_motion(motion, a.0, a.1, frame_center.0, frame_center.1),
        apply_motion(motion, b.0, b.1, frame_center.0, frame_center.1),
    )
}

/// Marker contrast depth.
const MARKER_DEPTH: f32 = 1100.0;
/// Marker radius (Gaussian sigma), pixels.
const MARKER_SIGMA: f32 = 2.2;
/// Guide-wire contrast depth.
const WIRE_DEPTH: f32 = 260.0;
/// Guide-wire width (sigma), pixels.
const WIRE_SIGMA: f32 = 1.1;
/// Wire sag amplitude perpendicular to the axis, pixels.
const WIRE_SAG: f64 = 2.0;
/// Stent strut contrast depth (faint before enhancement).
const STENT_DEPTH: f32 = 60.0;

/// Appends the device's absorber stamps under the given motion state to
/// `stamps`, in drawing order: wire, stent struts, then the markers.
///
/// Returns the moved marker positions (ground truth for the tests and the
/// accuracy experiments).
pub(crate) fn render_device(
    stamps: &mut Vec<Stamp>,
    cfg: &DeviceConfig,
    motion: &MotionState,
    frame_center: (f64, f64),
) -> ((f64, f64), (f64, f64)) {
    let (ma, mb) = marker_positions(cfg, motion, frame_center);

    // Guide wire: passes through both markers and extends beyond them,
    // with a gentle sinusoidal sag perpendicular to the axis.
    let dx = mb.0 - ma.0;
    let dy = mb.1 - ma.1;
    let len = (dx * dx + dy * dy).sqrt().max(1e-9);
    let (ux, uy) = (dx / len, dy / len);
    let (nx, ny) = (-uy, ux);
    let ext = len * 0.9; // wire extends past the markers on both sides
    let n_pts = 48;
    let mut wire = Vec::with_capacity(n_pts);
    for i in 0..n_pts {
        let t = i as f64 / (n_pts - 1) as f64;
        let along = -ext + t * (len + 2.0 * ext);
        let sag = WIRE_SAG * (std::f64::consts::PI * (along / (len + 2.0 * ext) + 0.5)).sin();
        wire.push((ma.0 + ux * along + nx * sag, ma.1 + uy * along + ny * sag));
    }
    stamps.extend(polyline_stamps(&wire, WIRE_DEPTH, WIRE_SIGMA));

    // Stent: a diamond mesh of faint struts between the markers.
    if cfg.stent_deployed {
        let radius = 5.0f64;
        let cells = 6usize;
        for i in 0..cells {
            let t0 = i as f64 / cells as f64;
            let t1 = (i + 1) as f64 / cells as f64;
            let p0 = (ma.0 + ux * len * t0, ma.1 + uy * len * t0);
            let p1 = (ma.0 + ux * len * t1, ma.1 + uy * len * t1);
            // two crossing struts per cell
            stamps.extend(line_stamps(
                (p0.0 + nx * radius, p0.1 + ny * radius),
                (p1.0 - nx * radius, p1.1 - ny * radius),
                STENT_DEPTH,
                0.8,
            ));
            stamps.extend(line_stamps(
                (p0.0 - nx * radius, p0.1 - ny * radius),
                (p1.0 + nx * radius, p1.1 + ny * radius),
                STENT_DEPTH,
                0.8,
            ));
        }
    }

    // Markers last so they dominate locally.
    for (cx, cy) in [ma, mb] {
        stamps.push(Stamp {
            cx,
            cy,
            depth: MARKER_DEPTH,
            sigma: MARKER_SIGMA,
        });
    }

    (ma, mb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::Canvas;

    /// The device drawn on a 128² canvas of background 2000, and the
    /// marker positions.
    fn drawn(cfg: &DeviceConfig, motion: &MotionState) -> (Canvas, (f64, f64), (f64, f64)) {
        let mut stamps = Vec::new();
        let (a, b) = render_device(&mut stamps, cfg, motion, (64.0, 64.0));
        let mut canvas = Canvas::new(128, 128, 2000.0);
        canvas.apply(stamps);
        (canvas, a, b)
    }

    fn centered(w: usize) -> DeviceConfig {
        DeviceConfig {
            center: (w as f64 / 2.0, w as f64 / 2.0),
            angle: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn marker_positions_respect_distance() {
        let cfg = centered(128);
        let (a, b) = marker_positions(&cfg, &MotionState::zero(), (64.0, 64.0));
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        assert!((d - cfg.marker_distance).abs() < 1e-9);
    }

    #[test]
    fn motion_translates_markers() {
        let cfg = centered(128);
        let m = MotionState {
            dx: 5.0,
            dy: -3.0,
            rot: 0.0,
        };
        let (a0, _) = marker_positions(&cfg, &MotionState::zero(), (64.0, 64.0));
        let (a1, _) = marker_positions(&cfg, &m, (64.0, 64.0));
        assert!((a1.0 - a0.0 - 5.0).abs() < 1e-9);
        assert!((a1.1 - a0.1 + 3.0).abs() < 1e-9);
    }

    #[test]
    fn rendered_markers_are_darkest_features() {
        let (canvas, a, b) = drawn(&centered(128), &MotionState::zero());
        let va = canvas.get(a.0.round() as usize, a.1.round() as usize);
        let vb = canvas.get(b.0.round() as usize, b.1.round() as usize);
        assert!(va < 1500.0, "marker A {va}");
        assert!(vb < 1500.0, "marker B {vb}");
        // wire midpoint is darker than background but lighter than markers
        let mid = canvas.get(64, 64);
        assert!(mid < 1995.0, "wire not drawn: {mid}");
        assert!(va < mid && vb < mid);
    }

    #[test]
    fn stent_struts_appear_between_markers() {
        let cfg = centered(128);
        let (with, ..) = drawn(&cfg, &MotionState::zero());
        let (without, ..) = drawn(
            &DeviceConfig {
                stent_deployed: false,
                ..cfg
            },
            &MotionState::zero(),
        );
        // summed absorbance between the markers must be higher with stent
        let sum = |c: &Canvas| -> f64 {
            let mut s = 0.0;
            for y in 52..76 {
                for x in 52..76 {
                    s += c.get(x, y) as f64;
                }
            }
            s
        };
        assert!(sum(&with) < sum(&without));
    }

    #[test]
    fn render_returns_ground_truth_positions() {
        let cfg = centered(128);
        let m = MotionState {
            dx: 2.0,
            dy: 1.0,
            rot: 0.0,
        };
        let (_, a, b) = drawn(&cfg, &m);
        let (pa, pb) = marker_positions(&cfg, &m, (64.0, 64.0));
        assert_eq!(a, pa);
        assert_eq!(b, pb);
    }
}
