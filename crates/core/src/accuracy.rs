//! Prediction-accuracy metrics.
//!
//! The paper reports "an average prediction accuracy of 97% ... with
//! sporadic excursions of the prediction error up to 20-30%" for
//! computation time, and 90% for cache-memory and communication-bandwidth
//! usage (Section 7). Accuracy of one prediction is `1 - |pred - actual| /
//! actual` (clamped at zero).

/// Accuracy of a single prediction in `[0, 1]`.
pub fn accuracy(predicted: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        // zero actual: perfect only if the prediction is also ~zero
        return if predicted.abs() < 1e-12 { 1.0 } else { 0.0 };
    }
    (1.0 - (predicted - actual).abs() / actual.abs()).max(0.0)
}

/// Relative error of a single prediction (unclamped).
fn relative_error(predicted: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        return if predicted.abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (predicted - actual).abs() / actual.abs()
}

/// Summary of a prediction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Number of predictions evaluated.
    pub count: usize,
    /// Mean accuracy in `[0, 1]` (the paper's 97% headline).
    pub mean_accuracy: f64,
    /// Maximum relative error (the paper's 20-30% excursions).
    pub max_error: f64,
    /// Fraction of predictions with relative error above 20%.
    pub excursions_over_20pct: f64,
    /// Mean absolute error in the prediction units.
    pub mean_abs_error: f64,
}

/// Evaluates a series of `(predicted, actual)` pairs.
pub fn evaluate(pairs: &[(f64, f64)]) -> AccuracyReport {
    if pairs.is_empty() {
        return AccuracyReport {
            count: 0,
            mean_accuracy: 0.0,
            max_error: 0.0,
            excursions_over_20pct: 0.0,
            mean_abs_error: 0.0,
        };
    }
    let n = pairs.len() as f64;
    let mut acc_sum = 0.0;
    let mut max_err: f64 = 0.0;
    let mut excursions = 0usize;
    let mut abs_sum = 0.0;
    for &(p, a) in pairs {
        acc_sum += accuracy(p, a);
        let e = relative_error(p, a);
        if e.is_finite() {
            max_err = max_err.max(e);
        }
        if e > 0.2 {
            excursions += 1;
        }
        abs_sum += (p - a).abs();
    }
    AccuracyReport {
        count: pairs.len(),
        mean_accuracy: acc_sum / n,
        max_error: max_err,
        excursions_over_20pct: excursions as f64 / n,
        mean_abs_error: abs_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_one() {
        assert_eq!(accuracy(10.0, 10.0), 1.0);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
    }

    #[test]
    fn ten_percent_off_is_point_nine() {
        assert!((accuracy(11.0, 10.0) - 0.9).abs() < 1e-12);
        assert!((accuracy(9.0, 10.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn wild_misprediction_clamps_at_zero() {
        assert_eq!(accuracy(100.0, 10.0), 0.0);
        assert!((relative_error(100.0, 10.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_handled() {
        assert_eq!(accuracy(0.0, 0.0), 1.0);
        assert_eq!(accuracy(5.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(5.0, 0.0).is_infinite());
    }

    #[test]
    fn report_on_mixed_series() {
        let pairs = vec![(10.0, 10.0), (11.0, 10.0), (13.0, 10.0), (10.0, 10.0)];
        let r = evaluate(&pairs);
        assert_eq!(r.count, 4);
        // accuracies: 1.0, 0.9, 0.7, 1.0 -> mean 0.9
        assert!((r.mean_accuracy - 0.9).abs() < 1e-12);
        assert!((r.max_error - 0.3).abs() < 1e-12);
        assert!((r.excursions_over_20pct - 0.25).abs() < 1e-12);
        assert!((r.mean_abs_error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = evaluate(&[]);
        assert_eq!(r.count, 0);
        assert_eq!(r.mean_accuracy, 0.0);
    }

    #[test]
    fn infinite_errors_do_not_poison_max() {
        let pairs = vec![(5.0, 0.0), (10.0, 10.0)];
        let r = evaluate(&pairs);
        assert!(r.max_error.is_finite());
        assert_eq!(r.count, 2);
    }
}
