//! Prediction-driven admission: Triple-C demand estimates as scheduler
//! input.
//!
//! The paper's predictions drive the per-frame repartitioning loop; the
//! service tier reuses the same model queries one level up, *before* a
//! stream runs: [`predict_demand`] asks the stream's own trained model
//! for its first frame's per-task costs and converts them — through
//! the identical [`choose_policy`] partitioning rule the runtime uses —
//! into a core demand and predicted frame latency. The service core
//! compares that demand against per-shard capacity headroom instead of
//! admitting blindly and discovering contention after the fact, and ranks
//! the streams that wait by the same prediction: frames still owed ×
//! predicted per-frame cost, least first.

use crate::adaptation::{choose_policy, predicted_latency, scenario_cost};
use crate::session::StreamSpec;
use triplec::predictor::{PredictContext, Prediction};
use triplec::scenario::Scenario;

/// Which point of the predicted cost distribution scheduling decisions
/// are made against.
///
/// [`predict_demand`] (and through it shard placement) sizes a stream's
/// core grant from its predicted per-task costs; this policy selects the
/// scalar those [`Prediction`] distributions collapse to. `Mean`
/// reproduces the historical point-estimate behavior; `Quantile(q)`
/// admits against the upper tail, reserving headroom for the cost
/// fluctuations the mean hides (the default is p99 — the service tier's
/// per-stream SLOs are tail guarantees, so admission is tail-driven).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Schedule against the predicted mean cost.
    Mean,
    /// Schedule against the predicted quantile `q` in `(0, 1]`
    /// (e.g. `0.99` for p99).
    Quantile(f64),
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::Quantile(0.99)
    }
}

impl AdmissionPolicy {
    /// Collapses a predicted distribution to this policy's scheduling
    /// cost.
    pub fn cost(&self, p: &Prediction) -> f64 {
        match *self {
            AdmissionPolicy::Mean => p.mean_ms,
            AdmissionPolicy::Quantile(q) => p.quantile(q),
        }
    }

    /// Canonical text label (`"mean"`, `"p99"`, `"p97.5"`), the form the
    /// run ledger's `quantile=` column records.
    pub fn label(&self) -> String {
        match *self {
            AdmissionPolicy::Mean => "mean".to_string(),
            AdmissionPolicy::Quantile(q) => {
                let pct = q * 100.0;
                if (pct - pct.round()).abs() < 1e-9 {
                    format!("p{}", pct.round() as u32)
                } else {
                    format!("p{pct}")
                }
            }
        }
    }
}

/// A stream's predicted steady-state resource demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDemand {
    /// Cores the stream wants (the stripe width [`choose_policy`] picks
    /// for its predicted first frame under its budget; 1 when the stream
    /// has no fixed budget to size a grant against).
    pub cores: usize,
    /// Predicted per-frame latency at that width, ms (at the policy's
    /// scheduling cost).
    pub predicted_ms: f64,
    /// The distribution point the demand was sized against.
    pub policy: AdmissionPolicy,
}

/// Predicts a stream's demand from its spec, before it has run a frame.
///
/// Prices the scenario `ResourceManager` plans an unstarted stream's
/// first frame with — the chain's likeliest successor of the worst case
/// with no ROI and no reference frame
/// ([`triplec::triple::TripleC::predict_first_scenario`]) — over the full
/// frame as ROI, collapses each task's predicted cost distribution to the
/// [`AdmissionPolicy`]'s scheduling point, splits the costs into
/// stripable and serial parts, and applies the runtime's own partitioning
/// rule capped at `max_cores` (the widest shard: a stream can never be
/// granted more). Summing per-task quantiles upper-bounds the frame
/// quantile (exact under comonotone task costs), which is the
/// conservative direction for admission.
pub fn predict_demand(
    spec: &StreamSpec,
    max_cores: usize,
    policy: AdmissionPolicy,
) -> StreamDemand {
    let max_cores = max_cores.max(1);
    let roi_kpixels = (spec.seq.width * spec.seq.height) as f64 / 1000.0;
    let ctx = PredictContext { roi_kpixels };
    let scenario = spec.model.predict_first_scenario(Scenario::worst_case());
    let (cost, _) = scenario_cost(&spec.model, scenario, &ctx, |p| policy.cost(p));
    match spec.budget {
        // no fixed budget: nothing sizes a grant before the first frame
        // sets one, so the stream enters with minimal demand (its first
        // frame stripes over whatever cores the grant holds)
        None => StreamDemand {
            cores: 1,
            predicted_ms: cost.total(),
            policy,
        },
        Some(budget) => {
            let cores = choose_policy(&cost, &budget, max_cores).0.stripes;
            StreamDemand {
                cores,
                predicted_ms: predicted_latency(&cost, cores),
                policy,
            }
        }
    }
}

/// Whether a stepping stream yields its turn to a shorter waiting one.
///
/// Under either policy a shard grant lasts one worker turn: a stream whose
/// input has run dry parks and gives its cores back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// A turn lasts while the stream has frames queued (no pre-emption).
    None,
    /// Pre-emption is *checked* every `frames` executed frames, not
    /// exercised: a stepping stream goes on unless a ready stream with
    /// strictly less predicted remaining work waits that neither a free
    /// worker nor free cores could serve otherwise. Then it parks,
    /// counted in `StreamServiceStats::evictions` and announced by a
    /// `StreamEvicted` event. An equal-length batch therefore runs to
    /// completion in stream order with no pre-emption at all, while a
    /// short stream arriving behind a long one overtakes it at the next
    /// quantum. The parked engine (model, tracking state, recovery
    /// bookkeeping) resumes, possibly on a different shard, exactly where
    /// it left off.
    TimeSlice {
        /// Frames between pre-emption checks (clamped to ≥ 1).
        frames: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::LatencyBudget;
    use crate::test_support::{seq, trained_model};
    use pipeline::app::AppConfig;

    #[test]
    fn unbudgeted_stream_demands_one_core() {
        let spec = StreamSpec::builder(seq(1, 4), AppConfig::default(), trained_model()).build();
        let d = predict_demand(&spec, 8, AdmissionPolicy::default());
        assert_eq!(d.cores, 1);
        assert!(d.predicted_ms > 0.0);
        assert_eq!(d.policy, AdmissionPolicy::Quantile(0.99));
    }

    #[test]
    fn tight_budget_demands_more_cores_capped_at_shard_width() {
        let model = trained_model();
        let spec = StreamSpec::builder(seq(1, 4), AppConfig::default(), model)
            .budget(LatencyBudget::new(0.001, 0.0))
            .build();
        let wide = predict_demand(&spec, 8, AdmissionPolicy::Mean);
        assert!(wide.cores > 1, "infeasible budget must stripe aggressively");
        assert!(wide.cores <= 8);
        let narrow = predict_demand(&spec, 2, AdmissionPolicy::Mean);
        assert!(narrow.cores <= 2, "demand exceeds the shard width");
        assert!(
            narrow.predicted_ms >= wide.predicted_ms,
            "fewer cores cannot predict faster frames"
        );
    }

    #[test]
    fn generous_budget_demands_few_cores() {
        let spec = StreamSpec::builder(seq(1, 4), AppConfig::default(), trained_model())
            .budget(LatencyBudget::new(10_000.0, 0.1))
            .build();
        let d = predict_demand(&spec, 8, AdmissionPolicy::default());
        assert_eq!(d.cores, 1, "a huge budget needs no striping");
    }

    #[test]
    fn quantile_admission_never_demands_less_than_mean() {
        let spec = StreamSpec::builder(seq(1, 4), AppConfig::default(), trained_model())
            .budget(LatencyBudget::new(5.0, 0.0))
            .build();
        let mean = predict_demand(&spec, 8, AdmissionPolicy::Mean);
        let p99 = predict_demand(&spec, 8, AdmissionPolicy::Quantile(0.99));
        assert!(
            p99.cores >= mean.cores,
            "tail admission must not shrink the grant: p99 {} < mean {}",
            p99.cores,
            mean.cores
        );
    }

    #[test]
    fn policy_labels() {
        assert_eq!(AdmissionPolicy::Mean.label(), "mean");
        assert_eq!(AdmissionPolicy::Quantile(0.99).label(), "p99");
        assert_eq!(AdmissionPolicy::Quantile(0.975).label(), "p97.5");
        assert_eq!(AdmissionPolicy::Quantile(0.5).label(), "p50");
        assert_eq!(AdmissionPolicy::Quantile(0.95).label(), "p95");
    }
}
