//! Series statistics: mean, deviation and autocorrelation analysis.
//!
//! The paper validates the applicability of Markov-chain modelling by
//! analyzing the autocorrelation function of each task's computation-time
//! series: "A disadvantage of Markov-chain modeling is the required
//! exponentially decaying autocorrelation function of the input data"
//! (Section 4). These helpers compute the ACF; the decay test itself is
//! part of the Fig. 3 experiment.

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance.
fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Normalized autocorrelation function up to `max_lag` (inclusive);
/// `acf[0] == 1` for any non-constant series.
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    let mut acf = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        if lag >= n || denom <= 1e-30 {
            acf.push(0.0);
            continue;
        }
        let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        acf.push(num / denom);
    }
    if !acf.is_empty() && denom > 1e-30 {
        acf[0] = 1.0;
    }
    acf
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // lag indexing mirrors acf(k) notation
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn acf_of_white_noise_drops_to_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..5000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let acf = autocorrelation(&xs, 10);
        assert!((acf[0] - 1.0).abs() < 1e-12);
        for k in 1..=10 {
            assert!(acf[k].abs() < 0.06, "lag {k}: {}", acf[k]);
        }
    }

    #[test]
    fn constant_series_has_zero_acf_tail() {
        let xs = vec![5.0; 100];
        let acf = autocorrelation(&xs, 5);
        for k in 0..=5 {
            assert_eq!(acf[k], 0.0, "lag {k}");
        }
    }

    #[test]
    fn acf_handles_short_series() {
        let acf = autocorrelation(&[1.0, 2.0], 5);
        assert_eq!(acf.len(), 6);
        // lags beyond series length are zero
        assert_eq!(acf[3], 0.0);
    }
}
