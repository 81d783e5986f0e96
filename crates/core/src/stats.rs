//! Series statistics: autocorrelation analysis and decay fitting.
//!
//! The paper validates the applicability of Markov-chain modelling by
//! analyzing the autocorrelation function of each task's computation-time
//! series: "A disadvantage of Markov-chain modeling is the required
//! exponentially decaying autocorrelation function of the input data"
//! (Section 4). These helpers compute the ACF and test for exponential
//! decay.

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

/// Result of the exponential-decay test on an ACF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayFit {
    /// Fitted decay rate `lambda` of `acf(k) ~ exp(-lambda k)`.
    pub lambda: f64,
    /// Root-mean-square error of the fit over the used lags.
    pub rmse: f64,
    /// Whether the series is suitable for first-order Markov modelling
    /// (positive decay, acceptable fit).
    pub markov_suitable: bool,
}

/// Fits `acf(k) = exp(-lambda k)` over the lags where the ACF stays
/// positive, by least squares on `ln acf(k) = -lambda k`.
///
/// This is the check the paper applies before choosing a Markov chain for
/// CPLS SEL, GW EXT and the detrended RDG series.
pub fn fit_exponential_decay(acf: &[f64]) -> DecayFit {
    // use lags 1..L while the ACF is meaningfully positive
    let mut ks = Vec::new();
    let mut logs = Vec::new();
    for (k, &v) in acf.iter().enumerate().skip(1) {
        if v <= 0.02 {
            break;
        }
        ks.push(k as f64);
        logs.push(v.ln());
    }
    if ks.len() < 2 {
        // decays immediately (white noise): trivially Markov-suitable with
        // a fast decay
        return DecayFit {
            lambda: f64::INFINITY,
            rmse: 0.0,
            markov_suitable: true,
        };
    }
    // least squares through the origin: ln acf = -lambda k
    let num: f64 = ks.iter().zip(&logs).map(|(k, l)| k * l).sum();
    let den: f64 = ks.iter().map(|k| k * k).sum();
    let lambda = -(num / den);
    let rmse = (ks
        .iter()
        .zip(&logs)
        .map(|(k, l)| {
            let e = l - (-lambda * k);
            e * e
        })
        .sum::<f64>()
        / ks.len() as f64)
        .sqrt();
    DecayFit {
        lambda,
        rmse,
        markov_suitable: lambda > 0.0 && rmse < 0.8,
    }
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
    fn acf_of_ar1_decays_exponentially() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pole = 0.8f64;
        let mut x = 0.0;
        let xs: Vec<f64> = (0..20000)
            .map(|_| {
                x = pole * x + rng.gen_range(-1.0..1.0);
                x
            })
            .collect();
        let acf = autocorrelation(&xs, 8);
        for k in 1..=8 {
            let expected = pole.powi(k as i32);
            assert!(
                (acf[k] - expected).abs() < 0.08,
                "lag {k}: {} vs {}",
                acf[k],
                expected
            );
        }
        let fit = fit_exponential_decay(&acf);
        assert!(fit.markov_suitable);
        assert!(
            (fit.lambda - (-pole.ln())).abs() < 0.1,
            "lambda {}",
            fit.lambda
        );
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
    fn white_noise_is_trivially_suitable() {
        let acf = vec![1.0, 0.01, 0.0, 0.0];
        let fit = fit_exponential_decay(&acf);
        assert!(fit.markov_suitable);
        assert!(fit.lambda.is_infinite());
    }

    #[test]
    fn periodic_series_is_not_exponential() {
        // a pure cosine ACF: acf(k) = cos(w k), goes negative and returns —
        // the positive prefix is short and badly fit by an exponential for
        // slow oscillations with a long positive prefix
        let n = 64;
        let acf: Vec<f64> = (0..n)
            .map(|k| (std::f64::consts::TAU * k as f64 / 40.0).cos())
            .collect();
        let fit = fit_exponential_decay(&acf);
        // cos stays near 1 then plunges: the log-linear fit has a large rmse
        assert!(fit.rmse > 0.3 || !fit.markov_suitable, "fit {:?}", fit);
    }

    #[test]
    fn acf_handles_short_series() {
        let acf = autocorrelation(&[1.0, 2.0], 5);
        assert_eq!(acf.len(), 6);
        // lags beyond series length are zero
        assert_eq!(acf[3], 0.0);
    }
}
