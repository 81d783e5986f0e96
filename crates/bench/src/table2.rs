//! Table 2 — (a) the RDG Markov transition matrix and (b) the per-task
//! model summary, trained on the 37-sequence / 1,921-frame corpus.

use crate::config::ExperimentConfig;
use crate::report::table;
use imaging::ridge::{rdg_full, RdgBuffers};
use pipeline::app::{structure_probe, AppConfig};
use pipeline::executor::ExecutionPolicy;
use pipeline::runner::{run_corpus, ProfileRun};
use platform::profile::time_ms;
use triplec::markov::MarkovChain;
use triplec::quantize::Quantizer;
use triplec::training::ModelKind;
use triplec::triple::{TripleC, TripleCConfig};
use triplec::Task;
use xray::{training_corpus, SequenceConfig, SequenceGenerator};

/// Structured Table 2 result.
pub(crate) struct Table2Result {
    /// The display-quantized (10-state, like the paper) RDG chain.
    pub(crate) rdg_chain: MarkovChain,
    /// `(task, model kind, model string)` rows of Table 2(b).
    pub(crate) summary: Vec<(Task, ModelKind, String)>,
}

/// Profiles the training corpus (scaled by `corpus_scale`).
///
/// In addition to the pipeline profile (which samples each task when its
/// flow-graph switches activate it), the RDG FULL task is profiled
/// *directly* on every corpus frame — offline task profiling, which is
/// how the paper's 1,921-frame Table 2(a) matrix and Fig. 3 trace are
/// built.
pub(crate) fn profile_training_corpus(cfg: &ExperimentConfig, app: &AppConfig) -> ProfileRun {
    let mut corpus = training_corpus(cfg.size, cfg.size);
    if cfg.corpus_scale < 1.0 {
        let keep = ((corpus.len() as f64 * cfg.corpus_scale).ceil() as usize).max(2);
        corpus.truncate(keep);
        for c in &mut corpus {
            c.frames = ((c.frames as f64 * cfg.corpus_scale).ceil() as usize).max(10);
        }
    }
    let mut run = run_corpus(corpus.clone(), app, &ExecutionPolicy::default());
    // offline RDG FULL profiling over the whole corpus
    let direct: Vec<(f64, f64)> = corpus
        .into_iter()
        .flat_map(|c| {
            let px = (c.width * c.height) as f64 / 1000.0;
            profile_rdg_direct(c, app).into_iter().map(move |t| (t, px))
        })
        .collect();
    run.samples.insert(Task::RdgFull, direct);
    run
}

/// Profiles the RDG FULL task directly on every frame of a sequence
/// (offline task profiling, as used to build the paper's Table 2(a)
/// transition matrix and the Fig. 3 trace): the content-adaptive
/// fine-scale switch is the executor's own
/// ([`AppConfig::fine_scales_active`]), but the task runs regardless of
/// the flow-graph switches.
pub(crate) fn profile_rdg_direct(cfg: SequenceConfig, app: &AppConfig) -> Vec<f64> {
    let mut bufs = RdgBuffers::new(cfg.width, cfg.height);
    // the fine scales start off, as in a fresh `AppState`
    let mut rdg_cfg = app.rdg.clone();
    rdg_cfg.fine_enabled = false;
    let mut series = Vec::with_capacity(cfg.frames);
    for frame in SequenceGenerator::new(cfg) {
        let probe = structure_probe(&frame.image, app.probe_block);
        rdg_cfg.fine_enabled = app.fine_scales_active(probe, rdg_cfg.fine_enabled);
        let (_, ms) = time_ms(|| rdg_full(&frame.image, &rdg_cfg, &mut bufs));
        series.push(ms);
    }
    series
}

/// Runs the Table 2 experiment.
pub(crate) fn run(cfg: &ExperimentConfig) -> (Table2Result, String) {
    let app = AppConfig::default();
    let profile = profile_training_corpus(cfg, &app);

    // (a): the paper shows a 10-state matrix over the RDG task's
    // computation-time states (equal-mass intervals)
    let mut rdg_series = profile.series_of(Task::RdgFull);
    rdg_series.extend(profile.series_of(Task::RdgRoi));
    assert!(!rdg_series.is_empty(), "corpus produced no RDG samples");
    let rdg_quantizer = Quantizer::train(&rdg_series, 10);
    let seq: Vec<usize> = rdg_series
        .iter()
        .map(|&v| rdg_quantizer.state_of(v))
        .collect();
    // (b): trained model summary
    let tc_cfg = TripleCConfig {
        geometry: cfg.geometry(),
    };
    let model = TripleC::train(&profile.task_series(), &profile.scenarios, tc_cfg);
    let r = Table2Result {
        rdg_chain: MarkovChain::estimate(&seq, rdg_quantizer.states()),
        summary: model.model_summary(),
    };

    let mut out = String::new();
    out.push_str(&format!(
        "Table 2 — trained on {} frames ({} sequences scale {:.2}) at {}x{}\n\n",
        profile.scenarios.len(),
        37,
        cfg.corpus_scale,
        cfg.size,
        cfg.size
    ));

    out.push_str("(a) RDG Markov transition matrix (equal-mass states, paper shows 10x10):\n");
    let n = r.rdg_chain.states();
    let headers: Vec<String> = std::iter::once("".to_string())
        .chain((0..n).map(|j| format!("s{j}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            std::iter::once(format!("s{i}"))
                .chain((0..n).map(|j| format!("{:.2}", r.rdg_chain.prob(i, j))))
                .collect()
        })
        .collect();
    out.push_str(&table(&header_refs, &rows));

    out.push_str("\n(b) model summary (paper's Table 2(b) for comparison):\n");
    let rows: Vec<Vec<String>> = r
        .summary
        .iter()
        .map(|(task, kind, name)| {
            let series = profile.series_of(*task);
            let m = triplec::stats::mean(&series);
            let cv = if m > 0.0 {
                triplec::stats::std_dev(&series) / m
            } else {
                0.0
            };
            let lag1 = triplec::stats::autocorrelation(&series, 1)
                .get(1)
                .copied()
                .unwrap_or(0.0);
            vec![
                task.to_string(),
                format!("{:?}", kind),
                name.clone(),
                format!("{m:.2}"),
                format!("{cv:.2}"),
                format!("{lag1:.2}"),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "Task",
            "Kind",
            "Prediction model [ms]",
            "mean ms",
            "CV",
            "lag-1 ACF",
        ],
        &rows,
    ));
    out.push_str(
        "\npaper: RDG FULL = Eq.1+Markov, RDG ROI = Eq.3+Markov, CPLS/GW = Eq.1+Markov,\n\
         MKX 2.5, REG 2, ROI EST 1, ENH 24, ZOOM 12.5 (constants in ms on its platform)\n",
    );

    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 128,
            corpus_scale: 0.06,
            ..Default::default()
        }
    }

    #[test]
    fn matrix_is_row_stochastic() {
        let (r, _) = run(&tiny());
        assert!(r.rdg_chain.is_row_stochastic(1e-9));
        assert!(r.rdg_chain.states() >= 2, "states {}", r.rdg_chain.states());
    }

    #[test]
    fn near_diagonal_mass_dominates() {
        // the paper's matrix concentrates probability near the diagonal
        // (positively correlated computation times); ours must too
        let (r, _) = run(&tiny());
        let n = r.rdg_chain.states();
        let mut near = 0.0;
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                let p = r.rdg_chain.prob(i, j);
                total += p;
                if (i as i64 - j as i64).unsigned_abs() <= 2 {
                    near += p;
                }
            }
        }
        assert!(near / total > 0.4, "near-diagonal mass {:.2}", near / total);
    }

    #[test]
    fn summary_has_expected_model_kinds() {
        let (r, text) = run(&tiny());
        assert!(!r.summary.is_empty());
        // MKX/REG-class tasks must not come out as LinearMarkov
        for (task, kind, _) in &r.summary {
            if matches!(task, Task::Reg | Task::RoiEst) {
                assert_ne!(*kind, ModelKind::LinearMarkov, "{task}");
            }
        }
        assert!(text.contains("(a) RDG Markov transition matrix"));
        assert!(text.contains("(b) model summary"));
    }
}
