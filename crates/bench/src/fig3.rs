//! Fig. 3 — computation time of the RDG FULL task over a long sequence,
//! decomposed into its low-frequency (EWMA / Eq. 1) and high-frequency
//! (Markov-modelled) parts.

use crate::config::ExperimentConfig;
use crate::report::strip_chart;
use crate::table2::profile_rdg_direct;
use pipeline::app::AppConfig;
use triplec::ewma::decompose;
use triplec::stats::{autocorrelation, mean, std_dev};
use xray::long_trace_sequence;

/// Structured result of the Fig. 3 trace.
#[derive(Debug, Clone)]
pub(crate) struct Fig3Result {
    /// Measured RDG FULL computation time per frame, ms.
    pub(crate) series: Vec<f64>,
    /// EWMA (LPF) component.
    pub(crate) lpf: Vec<f64>,
    /// Residual (HPF) component.
    pub(crate) hpf: Vec<f64>,
}

/// Result of the exponential-decay test on an ACF.
#[derive(Debug)]
struct DecayFit {
    /// Fitted decay rate `lambda` of `acf(k) ~ exp(-lambda k)`.
    lambda: f64,
    /// Root-mean-square error of the fit over the used lags.
    rmse: f64,
    /// Whether the series is suitable for first-order Markov modelling
    /// (positive decay, acceptable fit).
    markov_suitable: bool,
}

/// Fits `acf(k) = exp(-lambda k)` over the lags where the ACF stays
/// positive, by least squares on `ln acf(k) = -lambda k`.
///
/// This is the check the paper applies before choosing a Markov chain for
/// CPLS SEL, GW EXT and the detrended RDG series.
fn fit_exponential_decay(acf: &[f64]) -> DecayFit {
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

/// Runs the Fig. 3 trace: `frames` frames at `cfg.size`.
pub(crate) fn run(cfg: &ExperimentConfig, alpha: f64) -> (Fig3Result, String) {
    let seq = long_trace_sequence(cfg.size, cfg.size, cfg.fig3_frames);
    let series = profile_rdg_direct(seq, &AppConfig::default());

    let (lpf, hpf) = decompose(&series, alpha);
    let skip = (series.len() / 10)
        .max(5)
        .min(series.len().saturating_sub(2));
    let acf = autocorrelation(&hpf[skip..], 12);
    let fit = fit_exponential_decay(&acf);

    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 3 — RDG FULL computation time over {} frames at {}x{} (alpha = {alpha})\n\n",
        series.len(),
        cfg.size,
        cfg.size
    ));
    out.push_str(&strip_chart(
        "computation time [ms] (raw * / LPF o)",
        &[("RDG FULL", &series), ("LPF (EWMA)", &lpf)],
        14,
        72,
    ));
    out.push('\n');
    out.push_str(&strip_chart("HPF residual [ms]", &[("HPF", &hpf)], 8, 72));
    out.push_str(&format!(
        "\nseries: mean {:.2} ms, std {:.2} ms, min {:.2}, max {:.2}\n",
        mean(&series),
        std_dev(&series),
        series.iter().copied().fold(f64::INFINITY, f64::min),
        series.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ));
    out.push_str(&format!(
        "HPF autocorrelation decay: lambda {:.2}, rmse {:.2} -> Markov-suitable: {}\n",
        fit.lambda, fit.rmse, fit.markov_suitable
    ));
    out.push_str("(paper: the same decomposition on its platform, 1,750 frames, 35-55 ms band)\n");

    (Fig3Result { series, lpf, hpf }, out)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // lag indexing mirrors acf(k) notation
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 96,
            fig3_frames: 40,
            ..Default::default()
        }
    }

    #[test]
    fn trace_has_requested_length_and_positive_times() {
        let (r, text) = run(&tiny(), 0.2);
        assert_eq!(r.series.len(), 40);
        assert!(r.series.iter().all(|&t| t > 0.0));
        assert!(text.contains("RDG FULL"));
    }

    #[test]
    fn decomposition_reconstructs_signal() {
        let (r, _) = run(&tiny(), 0.2);
        for i in 0..r.series.len() {
            assert!((r.lpf[i] + r.hpf[i] - r.series[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn residual_is_smaller_than_signal() {
        let (r, _) = run(&tiny(), 0.2);
        let s_std = triplec::stats::std_dev(&r.series);
        let h_std = triplec::stats::std_dev(&r.hpf);
        assert!(
            h_std <= s_std * 1.5,
            "hpf std {h_std} vs series std {s_std}"
        );
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
}
