//! Model training and model selection from profiled traces.
//!
//! "For training the prediction models, we have used a data set of 37
//! video sequences of in total 1,921 video frames." (Section 7). The
//! pipeline profiles each task's execution times; this module turns those
//! series into the per-task predictors of Table 2(b).

use crate::model::TaskModel;
use crate::predictor::{ConstantPredictor, EwmaMarkovPredictor, LinearMarkovPredictor};
use crate::stats::{autocorrelation, mean, std_dev};
use platform::task::Task;

/// A profiled computation-time series of one task.
#[derive(Debug, Clone)]
pub struct TaskSeries {
    /// The task the series was profiled from.
    pub task: Task,
    /// Execution times in frame order, ms.
    pub samples: Vec<f64>,
    /// Parallel ROI-size covariates, kilopixels (empty when the task has no
    /// granularity dependence).
    pub roi_kpixels: Vec<f64>,
}

impl TaskSeries {
    /// Creates a series without covariates.
    pub fn new(task: Task, samples: Vec<f64>) -> Self {
        Self {
            task,
            samples,
            roi_kpixels: Vec::new(),
        }
    }

    /// Creates a series with ROI covariates (must be the same length).
    pub fn with_roi(task: Task, samples: Vec<f64>, roi_kpixels: Vec<f64>) -> Self {
        assert_eq!(
            samples.len(),
            roi_kpixels.len(),
            "covariate length mismatch"
        );
        Self {
            task,
            samples,
            roi_kpixels,
        }
    }
}

/// Which model class to use for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Fixed cost.
    Constant,
    /// EWMA long-term + Markov short-term (Eq. 1 + Eq. 2).
    EwmaMarkov,
    /// Linear ROI growth + Markov residual (Eq. 3 + Eq. 2).
    LinearMarkov,
}

/// Pearson correlation between two equal-length series.
fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    if dx <= 1e-30 || dy <= 1e-30 {
        0.0
    } else {
        num / (dx * dy).sqrt()
    }
}

/// Coefficient-of-variation threshold below which a task is modelled as
/// constant.
const CONSTANT_CV_THRESHOLD: f64 = 0.08;
/// Minimum |correlation| between ROI size and time to pick the linear
/// model.
const ROI_CORRELATION_THRESHOLD: f64 = 0.6;
/// Minimum lag-1 autocorrelation required for the Markov models: a series
/// that fluctuates but carries no temporal structure (pure measurement
/// noise) is unpredictable, and its mean is the optimal constant
/// predictor. This is the paper's autocorrelation analysis applied as a
/// model-selection gate.
const ACF_LAG1_THRESHOLD: f64 = 0.25;

/// Selects the model class for a task series (the analysis of Section 4:
/// coefficient of variation, ROI correlation, ACF decay).
pub fn select_model(series: &TaskSeries) -> ModelKind {
    let m = mean(&series.samples);
    let s = std_dev(&series.samples);
    if m <= 1e-12 || s / m < CONSTANT_CV_THRESHOLD {
        return ModelKind::Constant;
    }
    if series.roi_kpixels.len() == series.samples.len()
        && !series.roi_kpixels.is_empty()
        && correlation(&series.roi_kpixels, &series.samples).abs() > ROI_CORRELATION_THRESHOLD
    {
        return ModelKind::LinearMarkov;
    }
    // A fluctuating series is only worth a Markov model if the fluctuation
    // carries temporal structure; uncorrelated measurement noise is best
    // predicted by its mean.
    let acf = autocorrelation(&series.samples, 1);
    if acf.get(1).copied().unwrap_or(0.0) < ACF_LAG1_THRESHOLD {
        return ModelKind::Constant;
    }
    ModelKind::EwmaMarkov
}

/// EWMA smoothing factor (Eq. 1). The paper gives no value; 0.2 is the
/// calibrated default (see the alpha ablation experiment).
const ALPHA: f64 = 0.2;
/// Cap on the paper's `2M` state-count heuristic.
const MAX_STATES: usize = 24;

/// Selects the model class for a task series and trains it.
pub(crate) fn train_auto(series: &TaskSeries) -> TaskModel {
    match select_model(series) {
        ModelKind::Constant => TaskModel::Constant(ConstantPredictor::train(&series.samples)),
        ModelKind::EwmaMarkov => TaskModel::EwmaMarkov(EwmaMarkovPredictor::train(
            &series.samples,
            ALPHA,
            MAX_STATES,
            series.task.name(),
        )),
        ModelKind::LinearMarkov => {
            let points: Vec<(f64, f64)> = series
                .roi_kpixels
                .iter()
                .zip(&series.samples)
                .map(|(&r, &t)| (r, t))
                .collect();
            TaskModel::LinearMarkov(LinearMarkovPredictor::train(
                &points,
                MAX_STATES,
                series.task.name(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flat_series_selects_constant() {
        let s = TaskSeries::new(Task::MkxExt, vec![2.5, 2.52, 2.48, 2.51, 2.49, 2.5]);
        assert_eq!(select_model(&s), ModelKind::Constant);
    }

    #[test]
    fn roi_correlated_series_selects_linear() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let rois: Vec<f64> = (0..500).map(|i| 50.0 + (i % 200) as f64).collect();
        let times: Vec<f64> = rois
            .iter()
            .map(|&r| 0.07 * r + 20.0 + rng.gen_range(-1.0..1.0))
            .collect();
        let s = TaskSeries::with_roi(Task::RdgRoi, times, rois);
        assert_eq!(select_model(&s), ModelKind::LinearMarkov);
    }

    #[test]
    fn fluctuating_series_without_covariate_selects_ewma_markov() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut ar = 0.0;
        let times: Vec<f64> = (0..500)
            .map(|_| {
                ar = 0.9 * ar + rng.gen_range(-1.0..1.0);
                10.0 + 4.0 * ar
            })
            .collect();
        let s = TaskSeries::new(Task::CplsSel, times);
        assert_eq!(select_model(&s), ModelKind::EwmaMarkov);
    }

    #[test]
    fn correlation_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
        assert_eq!(correlation(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn train_auto_produces_working_predictor() {
        let s = TaskSeries::new(Task::Enh, vec![24.0, 24.1, 23.9, 24.0, 24.05]);
        let p = train_auto(&s);
        assert_eq!(p.kind(), ModelKind::Constant);
        let pred = p
            .predict(&crate::predictor::PredictContext::default())
            .mean_ms;
        assert!((pred - 24.01).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_covariates_rejected() {
        let _ = TaskSeries::with_roi(Task::RdgRoi, vec![1.0, 2.0], vec![1.0]);
    }
}
