//! # triplec-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index):
//!
//! * [`fig2`] — inter-task bandwidth annotations of the flow graph;
//! * [`fig3`] — the RDG computation-time trace + EWMA decomposition;
//! * [`fig5`] — intra-task swap bandwidth from cache overflow;
//! * [`fig6`] — latency vs. ROI size, serial vs. striped;
//! * [`fig7`] — straightforward vs. semi-automatic-parallel latency;
//! * [`table1`] — per-task memory requirements;
//! * [`table2`] — the RDG Markov matrix + model summary;
//! * [`accuracy_exp`] — the 97% computation-time accuracy headline;
//! * [`bandwidth_accuracy`] — the 90% bandwidth-model accuracy headline;
//! * [`ablation`] — alpha / state-count / decomposition / quantization /
//!   Markov order / online training;
//! * [`partitioning`] — data- vs. function-parallel scheduling (the
//!   paper's \[17\] comparison).
//!
//! Run everything with `cargo run --release -p triplec-bench --bin repro -- all`.

pub mod ablation;
pub mod accuracy_exp;
pub mod bandwidth_accuracy;
pub mod config;
pub mod detection;
pub mod export;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod partitioning;
pub mod qos_exp;
pub mod report;
pub mod table1;
pub mod table2;

pub use config::ExperimentConfig;

/// Five runs of a measurement made from host timings, sorted: tests judge
/// the median (`[2]`), which a descheduled run cannot move.
#[cfg(test)]
pub(crate) fn five_sorted(mut run: impl FnMut() -> f64) -> [f64; 5] {
    let mut runs = [(); 5].map(|()| run());
    runs.sort_by(f64::total_cmp);
    runs
}
