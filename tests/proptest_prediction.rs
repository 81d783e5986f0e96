//! Property-based tests of the prediction models' behavioural contracts.

use proptest::prelude::*;
use triple_c::triplec::linear::LinearModel;
use triple_c::triplec::predictor::{ConstantPredictor, EwmaMarkovPredictor, PredictContext};
use triple_c::triplec::training::{select_model, ModelKind, TaskSeries};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::triplec::Task;

fn ctx() -> PredictContext {
    PredictContext::default()
}

proptest! {
    /// EWMA+Markov predictions stay within (a modest expansion of) the
    /// training-value envelope, no matter what is observed afterwards.
    #[test]
    fn ewma_markov_predictions_bounded(
        train in prop::collection::vec(1.0f64..100.0, 10..120),
        observe in prop::collection::vec(1.0f64..100.0, 0..40),
    ) {
        let mut p = EwmaMarkovPredictor::train(&train, 0.2, 16, "T");
        for &x in &observe {
            p.observe(x, &ctx());
        }
        let lo = train.iter().chain(&observe).copied().fold(f64::INFINITY, f64::min);
        let hi = train.iter().chain(&observe).copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1.0);
        let pred = p.predict(&ctx());
        prop_assert!(pred.is_finite());
        prop_assert!(pred.mean_ms >= 0.0);
        prop_assert!(
            pred.mean_ms >= lo - span && pred.mean_ms <= hi + span,
            "mean {} outside [{lo}, {hi}] +- {span}",
            pred.mean_ms
        );
        // tail quantiles widen further: observed residuals are measured
        // against the state-conditioned mean, so they can compound up to
        // two more spans on top of it
        prop_assert!(
            pred.p99_ms >= 0.0 && pred.p99_ms <= hi + 3.0 * span,
            "p99 {} above {}",
            pred.p99_ms,
            hi + 3.0 * span
        );
        prop_assert!(pred.p50_ms <= pred.p95_ms && pred.p95_ms <= pred.p99_ms);
    }

    /// A constant predictor's point estimate is invariant under
    /// observation: observed residuals widen the tail quantiles but can
    /// never move the constant itself.
    #[test]
    fn constant_predictor_mean_is_immovable(v in 0.1f64..1e3, obs in prop::collection::vec(0.0f64..1e3, 0..20)) {
        let mut p = ConstantPredictor::new(v);
        for &x in &obs {
            p.observe(x, &ctx());
        }
        let pred = p.predict(&ctx());
        prop_assert_eq!(pred.mean_ms, v);
        prop_assert!(pred.p50_ms <= pred.p95_ms && pred.p95_ms <= pred.p99_ms);
    }

    /// Least-squares fitting is exact on noiseless lines and the residuals
    /// of the fit sum to ~zero.
    #[test]
    fn linear_fit_exact_and_centered(
        slope in -10.0f64..10.0,
        intercept in -100.0f64..100.0,
        n in 3usize..50,
    ) {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| {
            let x = i as f64;
            (x, slope * x + intercept)
        }).collect();
        let m = LinearModel::fit(&pts);
        prop_assert!((m.slope - slope).abs() < 1e-6, "slope {} vs {}", m.slope, slope);
        prop_assert!((m.intercept - intercept).abs() < 1e-5);
        let res = m.residuals(&pts);
        let sum: f64 = res.iter().sum();
        prop_assert!(sum.abs() < 1e-6);
    }

    /// Model selection is total: any non-empty series yields a model that
    /// trains without panicking, is of the selected class, and predicts a
    /// finite value.
    #[test]
    fn training_is_total(samples in prop::collection::vec(0.01f64..1e3, 2..100)) {
        let series = TaskSeries::new(Task::Reg, samples);
        let kind = select_model(&series);
        let n = series.samples.len();
        let mut t = TripleC::train(&[series], &vec![0; n], TripleCConfig::default());
        let summary = t.model_summary();
        prop_assert_eq!(summary.len(), 1);
        prop_assert_eq!(summary[0].1, kind);
        let v = t.predict_task(Task::Reg, &ctx()).unwrap();
        prop_assert!(v.is_finite() && v.mean_ms >= 0.0);
        prop_assert!(v.p50_ms <= v.p95_ms && v.p95_ms <= v.p99_ms);
        t.set_online_training(true);
        prop_assert!(t.observe_task(Task::Reg, 1.0, &ctx()));
        prop_assert!(t.predict_task(Task::Reg, &ctx()).unwrap().is_finite());
    }

    /// A strictly constant series always selects the constant model.
    #[test]
    fn constant_series_selects_constant(v in 0.1f64..1e3, n in 5usize..100) {
        let series = TaskSeries::new(Task::Reg, vec![v; n]);
        prop_assert_eq!(select_model(&series), ModelKind::Constant);
    }
}
