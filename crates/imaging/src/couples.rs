//! CPLS SEL — couples selection.
//!
//! Based on a-priori known distances between the two balloon markers on the
//! catheter, selects the best marker couple from the set of candidate
//! couples (Section 3). The candidate set is quadratic in the number of
//! extracted markers, which makes the task's computation time depend on the
//! image content — the paper models it with a Markov chain.

use crate::markers::Marker;

/// A selected marker couple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Couple {
    pub a: Marker,
    pub b: Marker,
    /// Combined selection score (lower is better).
    pub score: f64,
}

impl Couple {
    /// Midpoint of the couple.
    pub fn center(&self) -> (f64, f64) {
        ((self.a.x + self.b.x) * 0.5, (self.a.y + self.b.y) * 0.5)
    }

    /// Distance between the two markers.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }
}

/// Configuration of couples selection.
#[derive(Debug, Clone)]
pub struct CplsConfig {
    /// A-priori marker distance (balloon geometry), pixels.
    pub expected_distance: f64,
    /// Acceptable deviation from the expected distance, pixels.
    pub distance_tolerance: f64,
    /// Weight of the (inverted, normalized) strength term in the score.
    pub w_strength: f64,
    /// Weight of the temporal-consistency term (movement of the couple
    /// center relative to the previous frame's selection).
    pub w_temporal: f64,
    /// Maximum plausible inter-frame movement of the couple center, pixels;
    /// candidates moving further are penalized proportionally.
    pub max_motion: f64,
}

impl Default for CplsConfig {
    fn default() -> Self {
        Self {
            expected_distance: 24.0,
            distance_tolerance: 8.0,
            w_strength: 0.5,
            w_temporal: 0.8,
            max_motion: 12.0,
        }
    }
}

/// Result of couples selection.
#[derive(Debug, Clone)]
pub struct CplsOutput {
    /// Best couple, if any candidate pair passed the distance gate.
    pub couple: Option<Couple>,
    /// Number of candidate pairs that were scored (content-dependent load).
    pub pairs_scored: usize,
}

/// Weight of the distance error in the score.
const W_DISTANCE: f64 = 1.0;

/// Selects the best marker couple from `candidates`.
///
/// `previous` is the couple selected in the preceding frame, used for the
/// temporal-consistency term; pass `None` on the first frame or after a
/// tracking loss.
pub fn cpls_select(
    candidates: &[Marker],
    previous: Option<&Couple>,
    cfg: &CplsConfig,
) -> CplsOutput {
    let max_strength = candidates
        .iter()
        .map(|m| m.strength)
        .fold(0.0f32, f32::max)
        .max(1e-6) as f64;

    let mut best: Option<Couple> = None;
    let mut pairs_scored = 0usize;
    for i in 0..candidates.len() {
        for j in (i + 1)..candidates.len() {
            let a = candidates[i];
            let b = candidates[j];
            let d = a.distance(&b);
            let dist_err = (d - cfg.expected_distance).abs();
            if dist_err > cfg.distance_tolerance {
                continue;
            }
            pairs_scored += 1;
            let strength = (a.strength as f64 + b.strength as f64) / (2.0 * max_strength);
            let mut score = W_DISTANCE * (dist_err / cfg.distance_tolerance)
                + cfg.w_strength * (1.0 - strength);
            if let Some(prev) = previous {
                let (px, py) = prev.center();
                let cx = (a.x + b.x) * 0.5;
                let cy = (a.y + b.y) * 0.5;
                let motion = ((cx - px).powi(2) + (cy - py).powi(2)).sqrt();
                score += cfg.w_temporal * (motion / cfg.max_motion).min(3.0);
            }
            let cand = Couple { a, b, score };
            if best.as_ref().is_none_or(|c| cand.score < c.score) {
                best = Some(cand);
            }
        }
    }
    CplsOutput {
        couple: best,
        pairs_scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(x: f64, y: f64, strength: f32) -> Marker {
        Marker {
            x,
            y,
            strength,
            scale: 2.0,
        }
    }

    #[test]
    fn selects_pair_at_expected_distance() {
        let cfg = CplsConfig {
            expected_distance: 20.0,
            distance_tolerance: 4.0,
            ..Default::default()
        };
        let cands = vec![
            mk(10.0, 10.0, 100.0),
            mk(30.0, 10.0, 100.0), // 20 px from first: perfect
            mk(90.0, 90.0, 100.0), // far from everything
        ];
        let out = cpls_select(&cands, None, &cfg);
        let c = out.couple.expect("couple expected");
        assert!((c.length() - 20.0).abs() < 1e-9);
        assert!(out.pairs_scored >= 1);
    }

    #[test]
    fn rejects_when_no_pair_in_tolerance() {
        let cfg = CplsConfig {
            expected_distance: 20.0,
            distance_tolerance: 2.0,
            ..Default::default()
        };
        let cands = vec![mk(0.0, 0.0, 100.0), mk(50.0, 0.0, 100.0)];
        let out = cpls_select(&cands, None, &cfg);
        assert!(out.couple.is_none());
        assert_eq!(out.pairs_scored, 0);
    }

    #[test]
    fn stronger_pair_wins_at_equal_distance() {
        let cfg = CplsConfig {
            expected_distance: 20.0,
            distance_tolerance: 4.0,
            w_temporal: 0.0,
            ..Default::default()
        };
        let cands = vec![
            mk(0.0, 0.0, 50.0),
            mk(20.0, 0.0, 50.0),
            mk(0.0, 40.0, 200.0),
            mk(20.0, 40.0, 200.0),
        ];
        let out = cpls_select(&cands, None, &cfg);
        let c = out.couple.unwrap();
        assert!(c.a.y > 30.0 && c.b.y > 30.0, "picked weak pair: {:?}", c);
    }

    #[test]
    fn temporal_consistency_prefers_nearby_couple() {
        let cfg = CplsConfig {
            expected_distance: 20.0,
            distance_tolerance: 4.0,
            w_strength: 0.0,
            w_temporal: 2.0,
            ..Default::default()
        };
        let prev = Couple {
            a: mk(0.0, 0.0, 100.0),
            b: mk(20.0, 0.0, 100.0),
            score: 0.0,
        };
        let cands = vec![
            mk(1.0, 1.0, 100.0),
            mk(21.0, 1.0, 100.0), // near previous center
            mk(60.0, 60.0, 100.0),
            mk(80.0, 60.0, 100.0), // far away
        ];
        let out = cpls_select(&cands, Some(&prev), &cfg);
        let c = out.couple.unwrap();
        assert!(c.a.y < 10.0, "temporal term ignored: {:?}", c);
    }

    #[test]
    fn pairs_scored_grows_quadratically() {
        let cfg = CplsConfig {
            expected_distance: 10.0,
            distance_tolerance: 1e9,
            ..Default::default()
        };
        let few: Vec<Marker> = (0..4).map(|i| mk(i as f64, 0.0, 10.0)).collect();
        let many: Vec<Marker> = (0..16).map(|i| mk(i as f64, 0.0, 10.0)).collect();
        let a = cpls_select(&few, None, &cfg).pairs_scored;
        let b = cpls_select(&many, None, &cfg).pairs_scored;
        assert_eq!(a, 6);
        assert_eq!(b, 120);
    }

    #[test]
    fn empty_and_single_candidate_yield_none() {
        let cfg = CplsConfig::default();
        assert!(cpls_select(&[], None, &cfg).couple.is_none());
        assert!(cpls_select(&[mk(0.0, 0.0, 1.0)], None, &cfg)
            .couple
            .is_none());
    }

    #[test]
    fn couple_geometry_helpers() {
        let c = Couple {
            a: mk(0.0, 0.0, 1.0),
            b: mk(10.0, 0.0, 1.0),
            score: 0.0,
        };
        assert_eq!(c.center(), (5.0, 0.0));
        assert!((c.length() - 10.0).abs() < 1e-12);
    }
}
