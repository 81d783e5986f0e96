//! Output-latency control: the delay line and jitter metrics.
//!
//! "With a delay function at the end of the pipeline, the output latency
//! can be kept constant" (Section 6): frames completing before the budget
//! are held until the budget expires, frames overrunning are emitted late.
//! The jitter statistics quantify how constant the output actually is —
//! the paper's headline is a ~70% jitter reduction from semi-automatic
//! parallelization.

use platform::metrics::summary_of;

/// A fixed-budget output delay line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayLine {
    /// Latency budget, ms.
    pub budget_ms: f64,
}

impl DelayLine {
    /// Creates a delay line with the given budget.
    pub fn new(budget_ms: f64) -> Self {
        assert!(budget_ms >= 0.0, "budget must be non-negative");
        Self { budget_ms }
    }

    /// Effective output latency of a frame that completed processing after
    /// `completion_ms`: held to the budget when early, late when over.
    pub fn output_latency(&self, completion_ms: f64) -> f64 {
        completion_ms.max(self.budget_ms)
    }

    /// Whether a completion overruns the budget.
    pub fn overruns(&self, completion_ms: f64) -> bool {
        completion_ms > self.budget_ms
    }
}

/// Jitter metrics of a latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterReport {
    /// Peak-to-peak latency spread, ms.
    pub peak_to_peak: f64,
    /// Standard deviation, ms.
    pub std: f64,
    /// Mean absolute frame-to-frame latency change, ms (perceptual jitter).
    pub mean_delta: f64,
}

/// Computes jitter metrics: spread and deviation from the series summary
/// ([`summary_of`]), plus the frame-to-frame change only jitter asks for.
pub fn jitter(latencies: &[f64]) -> JitterReport {
    let s = summary_of(latencies);
    let mean_delta = if latencies.len() < 2 {
        0.0
    } else {
        latencies
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .sum::<f64>()
            / (latencies.len() - 1) as f64
    };
    JitterReport {
        peak_to_peak: s.max - s.min,
        std: s.std,
        mean_delta,
    }
}

/// Relative jitter reduction between two runs (`1 - after/before`), using
/// the standard deviation: the paper reports "able to lower the jitter on
/// the latency with almost 70%".
pub fn jitter_reduction(before: &JitterReport, after: &JitterReport) -> f64 {
    if before.std <= 1e-12 {
        0.0
    } else {
        1.0 - after.std / before.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_holds_early_frames() {
        let d = DelayLine::new(50.0);
        assert_eq!(d.output_latency(30.0), 50.0);
        assert_eq!(d.output_latency(50.0), 50.0);
        assert_eq!(d.output_latency(70.0), 70.0);
        assert!(!d.overruns(49.9));
        assert!(d.overruns(50.1));
    }

    #[test]
    fn constant_series_has_zero_jitter() {
        let j = jitter(&[40.0; 10]);
        assert_eq!(j.peak_to_peak, 0.0);
        assert_eq!(j.std, 0.0);
        assert_eq!(j.mean_delta, 0.0);
    }

    #[test]
    fn jitter_metrics_on_alternating_series() {
        let xs: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 40.0 } else { 60.0 })
            .collect();
        let j = jitter(&xs);
        assert_eq!(j.peak_to_peak, 20.0);
        assert_eq!(j.mean_delta, 20.0);
        assert!((j.std - 10.0).abs() < 1e-9);
    }

    #[test]
    fn delay_line_flattens_jitter_below_budget() {
        let d = DelayLine::new(65.0);
        let raw: Vec<f64> = vec![40.0, 62.0, 55.0, 48.0, 64.0];
        let out: Vec<f64> = raw.iter().map(|&c| d.output_latency(c)).collect();
        let j = jitter(&out);
        assert_eq!(j.peak_to_peak, 0.0, "all frames within budget must be flat");
    }

    #[test]
    fn jitter_reduction_metric() {
        let before = jitter(&[40.0, 80.0, 40.0, 80.0]);
        let after = jitter(&[58.0, 62.0, 58.0, 62.0]);
        let red = jitter_reduction(&before, &after);
        assert!(red > 0.85, "reduction {red}");
        assert_eq!(jitter_reduction(&jitter(&[5.0; 4]), &after), 0.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let j = jitter(&[]);
        assert_eq!(j.peak_to_peak, 0.0);
    }
}
