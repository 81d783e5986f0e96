//! Data-parallel vs. function-parallel partitioning (the comparison the
//! paper cites as \[17\], van der Tol et al.: "For a comparison between
//! data-parallel partitioning and function-parallel partitioning, we refer
//! to \[17\]", Section 6).
//!
//! The same measured per-frame task times are scheduled three ways:
//! serial, data-parallel (striping the stripable tasks) and
//! function-parallel (a four-stage pipeline, one core per stage). The
//! expected shape: functional partitioning multiplies *throughput* but
//! cannot cut a single frame's *latency*, which is why the paper stripes
//! RDG for its latency-critical application.

use crate::config::ExperimentConfig;
use crate::report::table;
use crate::schedule::{pipelined_schedule, stage_makespan, VirtualJob};
use pipeline::app::AppConfig;
use pipeline::executor::{ExecutionPolicy, STRIPABLE_TASKS};
use pipeline::runner::run_sequence;
use platform::metrics::summary_of;
use xray::SequenceConfig;

/// The four pipeline stages of the functional partitioning.
const STAGES: [&[&str]; 4] = [
    &["RDG_FULL", "RDG_ROI"],
    &["MKX_EXT", "CPLS_SEL", "REG"],
    &["ROI_EST", "GW_EXT"],
    &["ENH", "ZOOM"],
];

/// Structured result.
#[derive(Debug, Clone)]
pub struct PartitioningResult {
    /// Mean per-frame latency, ms: serial / data-parallel / functional.
    pub mean_latency: [f64; 3],
    /// Achievable throughput, frames/s: serial / data-parallel / functional.
    pub throughput: [f64; 3],
}

/// Runs the partitioning comparison.
pub fn run(cfg: &ExperimentConfig) -> (PartitioningResult, String) {
    let app = AppConfig::default();
    let seq = SequenceConfig {
        width: cfg.size,
        height: cfg.size,
        frames: 60,
        seed: 4242,
        ..Default::default()
    };
    let profile = run_sequence(seq, &app, &ExecutionPolicy::default());

    // per-frame stage times from the serial profile
    let frames: Vec<Vec<f64>> = profile
        .trace
        .records()
        .iter()
        .map(|r| {
            STAGES
                .iter()
                .map(|stage| stage.iter().filter_map(|t| r.task_time(t)).sum::<f64>())
                .collect()
        })
        .collect();

    // (1) serial: everything on one core
    let serial_lat: Vec<f64> = frames.iter().map(|f| f.iter().sum::<f64>()).collect();
    let serial_mean = summary_of(&serial_lat).mean;
    let serial_fps = 1000.0 / serial_mean;

    // (2) data-parallel: stripable work divided over 4 cores (ideal-ish,
    // with the executor's measured striping efficiency)
    let data_lat: Vec<f64> = profile
        .trace
        .records()
        .iter()
        .map(|r| {
            let stripable: f64 = r
                .task_times
                .iter()
                .filter(|(t, _)| STRIPABLE_TASKS.contains(t))
                .map(|&(_, ms)| ms)
                .sum();
            let serial: f64 = r
                .task_times
                .iter()
                .filter(|(t, _)| !STRIPABLE_TASKS.contains(t))
                .map(|&(_, ms)| ms)
                .sum();
            let jobs: Vec<VirtualJob> = (0..4)
                .map(|c| VirtualJob {
                    core: c,
                    duration_ms: stripable / (4.0 * 0.9),
                })
                .collect();
            stage_makespan(8, &jobs) + serial
        })
        .collect();
    let data_mean = summary_of(&data_lat).mean;
    let data_fps = 1000.0 / data_mean;

    // (3) function-parallel: four stages pipelined on four cores.
    // Throughput is measured at saturation (back-to-back arrivals);
    // latency at the application's 30 Hz arrival rate, where the pipe
    // does not queue (otherwise arrival queueing, not processing, would
    // dominate the latency number).
    let saturated = pipelined_schedule(&frames, &[0, 1, 2, 3], 8, 0.0);
    let func_fps = saturated.throughput_fps;
    let paced = pipelined_schedule(&frames, &[0, 1, 2, 3], 8, 1000.0 / 30.0);
    let func_mean = summary_of(&paced.latencies).mean;

    let mut out = String::new();
    out.push_str(&format!(
        "Partitioning comparison over {} frames at {}x{} (4 cores each)\n\n",
        frames.len(),
        cfg.size,
        cfg.size
    ));
    let rows = vec![
        vec![
            "serial".into(),
            format!("{serial_mean:.2}"),
            format!("{serial_fps:.1}"),
        ],
        vec![
            "data-parallel (4-stripe)".into(),
            format!("{data_mean:.2}"),
            format!("{data_fps:.1}"),
        ],
        vec![
            "function-parallel (4-stage pipe)".into(),
            format!("{func_mean:.2}"),
            format!("{func_fps:.1}"),
        ],
    ];
    out.push_str(&table(
        &["partitioning", "mean latency ms", "throughput fps"],
        &rows,
    ));
    out.push_str(
        "\nshape (van der Tol et al., the paper's [17]): functional partitioning\n\
         raises throughput but not single-frame latency; data partitioning cuts\n\
         latency — which is why the paper stripes RDG for its latency-critical\n\
         eye-hand-coordination requirement.\n",
    );

    (
        PartitioningResult {
            mean_latency: [serial_mean, data_mean, func_mean],
            throughput: [serial_fps, data_fps, func_fps],
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 128,
            ..Default::default()
        }
    }

    #[test]
    fn data_parallel_cuts_latency() {
        let (r, _) = run(&tiny());
        assert!(
            r.mean_latency[1] < r.mean_latency[0],
            "data-parallel {:.2} not below serial {:.2}",
            r.mean_latency[1],
            r.mean_latency[0]
        );
    }

    #[test]
    fn functional_raises_throughput_not_latency() {
        let (r, _) = run(&tiny());
        // throughput strictly better than serial
        assert!(
            r.throughput[2] > r.throughput[0],
            "functional fps {:.1} not above serial {:.1}",
            r.throughput[2],
            r.throughput[0]
        );
        // latency no better than serial (pipeline cannot shorten a frame)
        assert!(
            r.mean_latency[2] >= r.mean_latency[0] * 0.95,
            "functional latency {:.2} below serial {:.2}",
            r.mean_latency[2],
            r.mean_latency[0]
        );
    }
}
