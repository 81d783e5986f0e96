//! QoS control under a shrinking latency budget (Section 1's "QoS control
//! with shared resources"): the same dynamic sequence runs on the host's
//! cores under budgets set to shares of a full-quality run's mean
//! latency. Under a generous budget the manager holds it by
//! repartitioning alone; when even maximal striping cannot, the stream's
//! QoS control trades algorithmic quality (fine RDG scales, zoom
//! resolution) for latency.

use crate::config::ExperimentConfig;
use crate::fig7::train_model;
use crate::report::table;
use pipeline::app::AppConfig;
use runtime::manager::ManagerConfig;
use runtime::{LatencyBudget, StreamEngine, StreamSpec};
use triplec::stats::mean;
use xray::{HiddenEpisode, ScenarioConfig, SequenceConfig};

/// Budget targets as shares of the full-quality mean latency, loosest
/// first; the last is 2.5× below it, so no partitioning can hold it.
const SHARES: [f64; 4] = [2.0, 1.0, 0.8, 0.4];

/// One budget point.
#[derive(Debug, Clone)]
pub(crate) struct QosPoint {
    /// Budget target as a share of the full-quality mean latency.
    pub(crate) share: f64,
    /// Budget target, ms.
    pub(crate) budget_ms: f64,
    /// Fraction of frames that ran below full quality.
    pub(crate) degraded_fraction: f64,
    /// Mean measured frame latency, ms.
    pub(crate) mean_latency: f64,
    /// Frames whose latency exceeded the budget target.
    pub(crate) overruns: usize,
    /// Frames whose plan was infeasible even fully parallel.
    pub(crate) infeasible: usize,
}

/// Runs the QoS budget sweep.
pub(crate) fn run(cfg: &ExperimentConfig) -> (Vec<QosPoint>, String) {
    let app = AppConfig::default();
    let frames = cfg.fig7_frames.min(100);
    let seq = SequenceConfig {
        width: cfg.size,
        height: cfg.size,
        frames,
        seed: 777,
        scenario: ScenarioConfig {
            bolus: vec![HiddenEpisode {
                start: frames / 4,
                len: frames / 3,
            }],
            ..Default::default()
        },
        ..Default::default()
    };
    let manager = ManagerConfig::default();
    let model = train_model(cfg, &app);
    let spec = || StreamSpec::builder(seq.clone(), app.clone(), model.clone());
    let run = |spec: StreamSpec| {
        StreamEngine::new(0, spec, manager.cores)
            .run()
            .expect("no injector, no unrecoverable frame")
    };

    // the reference: full quality, budget initialized from the first frame
    let full_mean = mean(&run(spec().build()).trace.latencies());
    let results: Vec<QosPoint> = SHARES
        .iter()
        .map(|&share| {
            let budget_ms = share * full_mean;
            let budget = LatencyBudget::new(budget_ms, manager.headroom);
            let r = run(spec().budget(budget).qos().build());
            let lat = r.trace.latencies();
            QosPoint {
                share,
                budget_ms,
                degraded_fraction: r.degraded_frames as f64 / lat.len() as f64,
                mean_latency: mean(&lat),
                overruns: lat.iter().filter(|&&l| l > budget_ms).count(),
                infeasible: r.infeasible_frames,
            }
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "QoS control under shrinking latency budgets ({} frames at {}x{}, {} cores;\n\
         full-quality mean latency {:.2} ms)\n\n",
        frames, cfg.size, cfg.size, manager.cores, full_mean
    ));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}x", p.share),
                format!("{:.2}", p.budget_ms),
                format!("{:.0}%", p.degraded_fraction * 100.0),
                format!("{:.2}", p.mean_latency),
                format!("{}", p.overruns),
                format!("{}", p.infeasible),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "budget / mean",
            "budget ms",
            "frames run below full quality",
            "mean latency ms",
            "overruns",
            "infeasible plans",
        ],
        &rows,
    ));
    out.push_str(
        "\nunder a generous budget it holds by repartitioning alone; when no\n\
         partitioning can, the controller trades fine RDG scales / zoom\n\
         resolution for latency instead of dropping analysis tasks (Section 3:\n\
         tasks \"cannot be easily switched off\").\n",
    );
    (results, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_degrades_at_the_tightest_point() {
        let cfg = ExperimentConfig {
            size: 128,
            fig7_frames: 24,
            ..Default::default()
        };
        let (r, text) = run(&cfg);
        assert_eq!(r.len(), SHARES.len());
        assert!(text.contains("budget / mean"));
        let tightest = r.last().unwrap();
        assert!(tightest.share <= 0.5, "{r:?}");
        assert!(tightest.degraded_fraction > 0.0, "{r:?}");
    }
}
