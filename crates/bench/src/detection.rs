//! Substrate validation: marker-detection quality against ground truth.
//!
//! The substitution argument (DESIGN.md §2) requires the rebuilt analysis
//! chain to behave like a real one: markers must be found at their true
//! positions across the clinically relevant noise range, and tracking must
//! fail gracefully (not silently) when the device leaves the view. This
//! experiment sweeps the quantum-noise scale and reports detection
//! precision/recall and localization error against the generator's ground
//! truth.

use crate::config::ExperimentConfig;
use crate::report::table;
use imaging::couples::{cpls_select, CplsConfig};
use imaging::markers::{mkx_extract, MkxBuffers, MkxConfig};
use xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

/// One noise point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DetectionPoint {
    /// Quantum-noise scale of the generator.
    pub(crate) noise_scale: f32,
    /// Fraction of frames where both true markers were matched (< 3 px).
    pub(crate) recall: f64,
    /// Fraction of selected couples whose both endpoints are true markers.
    pub(crate) precision: f64,
    /// Mean localization error of matched markers, pixels.
    pub(crate) mean_error_px: f64,
}

/// Runs the detection-quality sweep.
pub(crate) fn run(cfg: &ExperimentConfig) -> (Vec<DetectionPoint>, String) {
    let frames = 24usize;
    let mut results = Vec::new();
    for &noise_scale in &[0.3f32, 0.8, 1.2, 2.0, 3.0] {
        let seq = SequenceConfig {
            width: cfg.size,
            height: cfg.size,
            frames,
            seed: 2025,
            noise: NoiseConfig {
                quantum_scale: noise_scale,
                electronic_std: 4.0,
            },
            ..Default::default()
        };
        let mut bufs = MkxBuffers::new(cfg.size, cfg.size);
        let mkx_cfg = MkxConfig::default();
        let cpls_cfg = CplsConfig::default();

        let mut matched_frames = 0usize;
        let mut selected = 0usize;
        let mut true_selected = 0usize;
        let mut err_sum = 0.0f64;
        let mut err_n = 0usize;
        for frame in SequenceGenerator::new(seq) {
            let (Some(ta), Some(tb)) = (frame.truth.marker_a, frame.truth.marker_b) else {
                continue;
            };
            let out = mkx_extract(&frame.image, frame.image.full_roi(), &mkx_cfg, &mut bufs);
            let near = |tx: f64, ty: f64| {
                out.candidates
                    .iter()
                    .map(|m| ((m.x - tx).powi(2) + (m.y - ty).powi(2)).sqrt())
                    .fold(f64::INFINITY, f64::min)
            };
            let da = near(ta.0, ta.1);
            let db = near(tb.0, tb.1);
            if da < 3.0 && db < 3.0 {
                matched_frames += 1;
                err_sum += (da + db) * 0.5;
                err_n += 1;
            }
            if let Some(c) = cpls_select(&out.candidates, None, &cpls_cfg).couple {
                selected += 1;
                let on_truth = |x: f64, y: f64| {
                    ((x - ta.0).powi(2) + (y - ta.1).powi(2)).sqrt() < 3.0
                        || ((x - tb.0).powi(2) + (y - tb.1).powi(2)).sqrt() < 3.0
                };
                if on_truth(c.a.x, c.a.y) && on_truth(c.b.x, c.b.y) {
                    true_selected += 1;
                }
            }
        }
        results.push(DetectionPoint {
            noise_scale,
            recall: matched_frames as f64 / frames as f64,
            precision: if selected == 0 {
                0.0
            } else {
                true_selected as f64 / selected as f64
            },
            mean_error_px: if err_n == 0 {
                f64::NAN
            } else {
                err_sum / err_n as f64
            },
        });
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Marker-detection quality vs. quantum noise ({} frames/point at {}x{})\n\n",
        frames, cfg.size, cfg.size
    ));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.noise_scale),
                format!("{:.0}%", p.recall * 100.0),
                format!("{:.0}%", p.precision * 100.0),
                format!("{:.2}", p.mean_error_px),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "noise scale",
            "marker recall",
            "couple precision",
            "mean error px",
        ],
        &rows,
    ));
    out.push_str(
        "\n(the default corpus noise scale is 1.2; detection must be solid there\n\
         and may degrade gracefully beyond it)\n",
    );
    (results, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_solid_at_corpus_noise() {
        let cfg = ExperimentConfig {
            size: 128,
            ..Default::default()
        };
        let (r, _) = run(&cfg);
        let at_default = r
            .iter()
            .find(|p| (p.noise_scale - 1.2).abs() < 1e-6)
            .unwrap();
        assert!(
            at_default.recall > 0.7,
            "recall {:.2} at corpus noise",
            at_default.recall
        );
        assert!(
            at_default.precision > 0.7,
            "precision {:.2} at corpus noise",
            at_default.precision
        );
        assert!(
            at_default.mean_error_px < 1.5,
            "error {:.2} px",
            at_default.mean_error_px
        );
    }

    #[test]
    fn low_noise_is_at_least_as_good_as_high_noise() {
        let cfg = ExperimentConfig {
            size: 128,
            ..Default::default()
        };
        let (r, _) = run(&cfg);
        let lo = r.first().unwrap();
        let hi = r.last().unwrap();
        assert!(lo.recall >= hi.recall - 0.1, "lo {:?} hi {:?}", lo, hi);
    }
}
