//! Adaptive state quantization for the Markov chains.
//!
//! "The number of states M is Cmax/sigma_C, where Cmax denotes the largest
//! measured value and sigma_C the standard deviation. We have
//! experimentally evolved to a model with approximately 2M states to
//! obtain sufficient accuracy. The quantization intervals are adaptively
//! chosen such that each interval contains on the average the same amount
//! of samples." (Section 4)

use crate::stats::std_dev;

/// An equal-mass (quantile-based) scalar quantizer.
///
/// ```
/// use triplec::Quantizer;
/// let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let states = Quantizer::paper_state_count(&samples, 32); // 2M heuristic
/// let q = Quantizer::train(&samples, states);
/// let s = q.state_of(42.0);
/// assert!(s < q.states());
/// assert!((q.representative(s) - 42.0).abs() < 100.0 / states as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    /// Interval upper bounds; state `i` covers `(bounds[i-1], bounds[i]]`.
    /// The last state is open-ended.
    bounds: Vec<f64>,
    /// Representative value per state (mean of the training samples that
    /// fell in the interval).
    reps: Vec<f64>,
}

impl Quantizer {
    /// The paper's state-count heuristic: `M = Cmax / sigma`, doubled.
    ///
    /// Degenerate series (zero deviation) collapse to one state; the count
    /// is clamped to `[1, max_states]` to keep the transition matrix
    /// estimable from finite data.
    pub fn paper_state_count(samples: &[f64], max_states: usize) -> usize {
        let sigma = std_dev(samples);
        let cmax = samples.iter().copied().fold(0.0f64, f64::max);
        if sigma <= 1e-12 || cmax <= 0.0 {
            return 1;
        }
        let m = (cmax / sigma).ceil() as usize;
        (2 * m).clamp(1, max_states)
    }

    /// Builds an equal-mass quantizer with at most `states` intervals from
    /// training samples. Heavily tied data can collapse to fewer states.
    /// Panics on an empty training set or zero states.
    pub fn train(samples: &[f64], states: usize) -> Self {
        assert!(states > 0, "at least one state required");
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let max_sample = sorted[n - 1];

        // Internal cut points at the i/states quantiles; the cut is placed
        // midway between the adjacent order statistics so the equal-mass
        // split is exact for clustered data. A cut at (or beyond) the
        // maximum would leave an empty top interval and is dropped, as are
        // duplicate cuts from tied data.
        let mut cuts = Vec::with_capacity(states.saturating_sub(1));
        for i in 1..states {
            if n < 2 {
                break;
            }
            let idx = ((i * n) / states).clamp(1, n - 1);
            let cut = 0.5 * (sorted[idx - 1] + sorted[idx]);
            if cut < max_sample && cuts.last().is_none_or(|&c| cut > c) {
                cuts.push(cut);
            }
        }
        let mut bounds = cuts;
        bounds.push(f64::INFINITY);
        let states = bounds.len();

        // representatives: mean of samples per interval
        let mut sums = vec![0.0f64; states];
        let mut counts = vec![0usize; states];
        let tmp = Self {
            bounds: bounds.clone(),
            reps: vec![0.0; states],
        };
        for &s in &sorted {
            let st = tmp.state_of(s);
            sums[st] += s;
            counts[st] += 1;
        }
        let mut reps = Vec::with_capacity(states);
        for i in 0..states {
            if counts[i] > 0 {
                reps.push(sums[i] / counts[i] as f64);
            } else {
                // cannot happen for cuts strictly inside the sample range,
                // but keep a sane fallback: the lower bound of the interval
                let lo = if i == 0 { sorted[0] } else { bounds[i - 1] };
                reps.push(lo);
            }
        }
        Self { bounds, reps }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.bounds.len()
    }

    /// Maps a value to its state index.
    pub fn state_of(&self, x: f64) -> usize {
        // binary search over upper bounds
        match self.bounds.binary_search_by(|b| b.total_cmp(&x)) {
            Ok(i) => i, // exactly on a bound: interval is (lo, bound]
            Err(i) => i.min(self.bounds.len() - 1),
        }
    }

    /// Representative value of a state.
    pub fn representative(&self, state: usize) -> f64 {
        self.reps[state]
    }

    /// Quantize-dequantize round trip.
    pub fn reconstruct(&self, x: f64) -> f64 {
        self.representative(self.state_of(x))
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.f64_slice(&self.bounds);
        w.f64_slice(&self.reps);
    }

    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Corrupt;
        let bounds = r.f64_vec("quantizer bounds")?;
        let reps = r.f64_vec("quantizer reps")?;
        if bounds.is_empty() {
            return Err(Corrupt("quantizer has no states"));
        }
        if reps.len() != bounds.len() {
            return Err(Corrupt("quantizer reps/bounds length mismatch"));
        }
        // every bound but the open-ended last one is finite; the sequence
        // is strictly increasing (state_of relies on sorted bounds)
        let (last, inner) = bounds.split_last().unwrap();
        if *last != f64::INFINITY {
            return Err(Corrupt("quantizer last bound must be +inf"));
        }
        if inner.iter().any(|b| !b.is_finite()) {
            return Err(Corrupt("quantizer inner bound not finite"));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Corrupt("quantizer bounds not strictly increasing"));
        }
        if reps.iter().any(|x| !x.is_finite()) {
            return Err(Corrupt("quantizer representative not finite"));
        }
        Ok(Self { bounds, reps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_state_count_formula() {
        // Cmax = 50, sigma = 10 -> M = 5 -> 2M = 10 states
        let samples: Vec<f64> = vec![30.0, 40.0, 50.0, 20.0, 10.0, 30.0, 30.0, 30.0];
        let sigma = std_dev(&samples);
        let expect = 2 * ((50.0f64 / sigma).ceil() as usize);
        assert_eq!(Quantizer::paper_state_count(&samples, 64), expect.min(64));
    }

    #[test]
    fn degenerate_series_gets_one_state() {
        assert_eq!(Quantizer::paper_state_count(&[5.0, 5.0, 5.0], 64), 1);
        assert_eq!(Quantizer::paper_state_count(&[0.0, 0.0], 64), 1);
    }

    #[test]
    fn state_count_clamped() {
        // tiny sigma vs large max -> huge M, clamped
        let samples = vec![100.0, 100.1, 99.9, 100.0];
        assert_eq!(Quantizer::paper_state_count(&samples, 32), 32);
    }

    #[test]
    fn equal_mass_property_on_uniform_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..10000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let q = Quantizer::train(&samples, 10);
        assert_eq!(q.states(), 10);
        let mut counts = vec![0usize; q.states()];
        for &s in &samples {
            counts[q.state_of(s)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = samples.len() / q.states();
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 4) as u64,
                "state {i}: {c} samples vs expected {expected}"
            );
        }
    }

    #[test]
    fn equal_mass_property_on_skewed_data() {
        // exponential-ish data: intervals must be narrow near zero
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..10000)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-9..1.0);
                -u.ln() * 10.0
            })
            .collect();
        let q = Quantizer::train(&samples, 8);
        let mut counts = vec![0usize; q.states()];
        for &s in &samples {
            counts[q.state_of(s)] += 1;
        }
        let expected = samples.len() / q.states();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "state {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn states_cover_whole_line() {
        let q = Quantizer::train(&[1.0, 2.0, 3.0, 4.0, 5.0], 3);
        assert_eq!(q.state_of(-100.0), 0);
        assert_eq!(q.state_of(100.0), q.states() - 1);
    }

    #[test]
    fn representative_minimizes_within_interval_error() {
        let samples = vec![1.0, 1.2, 0.8, 10.0, 10.5, 9.5];
        let q = Quantizer::train(&samples, 2);
        // reps should be ~1.0 and ~10.0
        let r0 = q.reconstruct(1.1);
        let r1 = q.reconstruct(10.2);
        assert!((r0 - 1.0).abs() < 0.3, "r0 {r0}");
        assert!((r1 - 10.0).abs() < 0.5, "r1 {r1}");
    }

    #[test]
    fn tied_data_dedups_states() {
        let samples = vec![5.0; 100];
        let q = Quantizer::train(&samples, 10);
        assert_eq!(q.states(), 1);
        assert_eq!(q.reconstruct(5.0), 5.0);
    }

    #[test]
    fn reconstruct_is_idempotent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..1000).map(|_| rng.gen_range(0.0..50.0)).collect();
        let q = Quantizer::train(&samples, 6);
        for &s in samples.iter().take(50) {
            let r = q.reconstruct(s);
            assert_eq!(q.reconstruct(r), r, "value {s}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_rejected() {
        let _ = Quantizer::train(&[], 4);
    }
}
