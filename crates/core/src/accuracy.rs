//! Prediction-accuracy metrics.
//!
//! The paper reports "an average prediction accuracy of 97% ... with
//! sporadic excursions of the prediction error up to 20-30%" for
//! computation time, and 90% for cache-memory and communication-bandwidth
//! usage (Section 7). Accuracy of one prediction is `1 - |pred - actual| /
//! actual` (clamped at zero).
//!
//! [`PredictionLog`] collects the `(predicted, actual)` pairs from the
//! frame-event bus: accuracy reporting is just another bus subscriber,
//! not manager-internal bookkeeping.

use platform::bus::{FrameEvent, Subscriber};
use std::sync::{Arc, Mutex};

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

/// A bus subscriber that logs `(predicted, actual)` serial frame times
/// from [`FrameEvent::FrameExecuted`] events.
///
/// Subscribe the log to a bus and keep a [`PredictionLogHandle`] to read
/// an [`AccuracyReport`] over the pairs at any time:
///
/// ```
/// use platform::bus::{EventBus, FrameEvent};
/// use triplec::accuracy::PredictionLog;
///
/// let mut bus = EventBus::new();
/// let handle = PredictionLog::subscribe_to(&mut bus);
/// bus.emit(FrameEvent::FrameExecuted {
///     stream: 0, frame: 0, scenario: 5,
///     predicted_total_ms: 40.0, actual_total_ms: 41.0, latency_ms: 12.0,
/// });
/// assert_eq!(handle.report().count, 1);
/// assert!(handle.report().mean_accuracy > 0.97);
/// ```
pub struct PredictionLog {
    pairs: Arc<Mutex<Vec<(f64, f64)>>>,
}

impl PredictionLog {
    /// Creates a log and its reader handle.
    fn new() -> (Self, PredictionLogHandle) {
        let pairs = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                pairs: Arc::clone(&pairs),
            },
            PredictionLogHandle { pairs },
        )
    }

    /// Creates a log, subscribes it to `bus`, returns the reader handle.
    pub fn subscribe_to(bus: &mut platform::bus::EventBus) -> PredictionLogHandle {
        let (log, handle) = Self::new();
        bus.subscribe(Box::new(log));
        handle
    }
}

impl Subscriber for PredictionLog {
    fn on_event(&mut self, event: &FrameEvent) {
        if let FrameEvent::FrameExecuted {
            predicted_total_ms,
            actual_total_ms,
            ..
        } = *event
        {
            self.pairs
                .lock()
                .unwrap()
                .push((predicted_total_ms, actual_total_ms));
        }
    }
}

/// Reader side of a [`PredictionLog`].
#[derive(Clone)]
pub struct PredictionLogHandle {
    pairs: Arc<Mutex<Vec<(f64, f64)>>>,
}

impl PredictionLogHandle {
    /// Accuracy report over the logged pairs (the Section 7 metric).
    pub fn report(&self) -> AccuracyReport {
        evaluate(&self.pairs.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::bus::EventBus;

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

    fn executed(frame: usize, predicted: f64, actual: f64) -> FrameEvent {
        FrameEvent::FrameExecuted {
            stream: 0,
            frame,
            scenario: 5,
            predicted_total_ms: predicted,
            actual_total_ms: actual,
            latency_ms: actual,
        }
    }

    #[test]
    fn prediction_log_collects_frame_executed_pairs() {
        let mut bus = EventBus::new();
        let handle = PredictionLog::subscribe_to(&mut bus);
        assert_eq!(handle.report().count, 0);
        bus.emit(executed(0, 10.0, 10.0));
        bus.emit(executed(1, 11.0, 10.0));
        // non-FrameExecuted events are ignored
        bus.emit(FrameEvent::QosIntervention {
            stream: 0,
            frame: 1,
            level: 1,
        });
        bus.emit(executed(2, 13.0, 10.0));
        bus.emit(executed(3, 10.0, 10.0));
        // identical numbers to evaluating the raw pairs directly
        let direct = evaluate(&[(10.0, 10.0), (11.0, 10.0), (13.0, 10.0), (10.0, 10.0)]);
        assert_eq!(handle.report(), direct);
        assert!((direct.mean_accuracy - 0.9).abs() < 1e-12);
    }
}
