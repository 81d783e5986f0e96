//! QoS control under platform pressure (Section 1's "QoS control with
//! shared resources"): the same dynamic sequence is run with progressively
//! fewer available cores (other functions occupying the platform). With
//! enough cores the manager holds the budget by repartitioning alone; when
//! even maximal striping cannot, the QoS controller trades algorithmic
//! quality (fine RDG scales, zoom resolution) for latency.

use crate::config::ExperimentConfig;
use crate::fig7::train_model;
use crate::report::table;
use pipeline::app::AppConfig;
use runtime::qos::{run_with_qos, QosController, QosLevel};
use runtime::{StreamEngine, StreamSpec};
use xray::{HiddenEpisode, ScenarioConfig, SequenceConfig};

/// One pressure point.
#[derive(Debug, Clone)]
pub struct QosPoint {
    /// Cores available to the application.
    pub cores: usize,
    /// Mean effective latency, ms.
    pub mean_latency: f64,
    /// Fraction of frames spent below full quality.
    pub degraded_fraction: f64,
    /// Frames whose plan was infeasible even fully parallel.
    pub infeasible: usize,
}

/// Runs the QoS pressure sweep.
pub fn run(cfg: &ExperimentConfig) -> (Vec<QosPoint>, String) {
    let app = AppConfig::default();
    let model_template = || train_model(cfg, &app);
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

    // a fixed, tight budget shared by all pressure points: what the
    // 8-core platform can comfortably sustain
    let mut results = Vec::new();
    let mut reference_budget = None;
    for &cores in &[8usize, 4, 2, 1] {
        let mut spec = StreamSpec::builder(seq.clone(), app.clone(), model_template());
        if let Some(b) = reference_budget {
            spec = spec.budget(b);
        }
        let mut controller = QosController::new(3, 10);
        let (run, levels) =
            run_with_qos(StreamEngine::new(0, spec.build(), cores), &mut controller)
                .expect("no injector, no unrecoverable frame");
        if reference_budget.is_none() {
            reference_budget = run.budget;
        }
        let lat = run.trace.latencies();
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        let degraded =
            levels.iter().filter(|&&l| l != QosLevel::Full).count() as f64 / levels.len() as f64;
        results.push(QosPoint {
            cores,
            mean_latency: mean,
            degraded_fraction: degraded,
            infeasible: run.infeasible_frames,
        });
    }

    let mut out = String::new();
    out.push_str(&format!(
        "QoS control under shrinking core budgets ({} frames at {}x{})\n\n",
        frames, cfg.size, cfg.size
    ));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.cores),
                format!("{:.1}", p.mean_latency),
                format!("{:.0}%", p.degraded_fraction * 100.0),
                format!("{}", p.infeasible),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "cores",
            "mean latency ms",
            "frames below full quality",
            "infeasible plans",
        ],
        &rows,
    ));
    out.push_str(
        "\nwith ample cores the budget holds by repartitioning alone; under\n\
         pressure the controller trades fine RDG scales / zoom resolution for\n\
         latency instead of dropping analysis tasks (Section 3: tasks \"cannot\n\
         be easily switched off\").\n",
    );
    (results, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_sweep_produces_all_points() {
        let cfg = ExperimentConfig {
            size: 128,
            fig7_frames: 24,
            ..Default::default()
        };
        let (r, text) = run(&cfg);
        assert_eq!(r.len(), 4);
        assert!(text.contains("cores"));
        // fewer cores can only raise (or keep) infeasibility
        assert!(r[3].infeasible >= r[0].infeasible, "{:?}", r);
    }
}
