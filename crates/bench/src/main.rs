//! `repro` — regenerates every table and figure of the Triple-C paper's
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
//!   paper's \[17\] comparison);
//! * [`qos_exp`] — the QoS budget sweep;
//! * [`detection`] — marker detection under rising noise.
//!
//! Usage:
//!   `repro [<experiment> [--size N] [--frames N] [--corpus-scale X] [--stripes a,b,..] [--csv DIR]]`
//!
//! Experiments: all (the default) table1 fig2 fig5 bandwidth-accuracy fig3
//!              fig6 table2 accuracy fig7 ablation-alpha ablation-states
//!              ablation-decomposition ablation-quantize ablation-order
//!              ablation-online partitioning qos detection
//!
//! An unknown experiment or a flag value an experiment cannot run with
//! prints one line and exits with status 2. Analytic experiments (fig2,
//! fig5, table1, bandwidth-accuracy) always use the paper's 1024x1024 /
//! 4 MB-L2 parameters; measured experiments render synthetic sequences at
//! `--size` (default 256). `--csv DIR` also writes the series of fig3,
//! fig6 and fig7 as CSV files.

mod ablation;
mod accuracy_exp;
mod bandwidth_accuracy;
mod config;
mod detection;
mod export;
mod fig2;
mod fig3;
mod fig5;
mod fig6;
mod fig7;
mod partitioning;
mod qos_exp;
mod report;
mod schedule;
mod table1;
mod table2;

use config::ExperimentConfig;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 18] = [
    "table1",
    "fig2",
    "fig5",
    "bandwidth-accuracy",
    "fig3",
    "fig6",
    "table2",
    "accuracy",
    "fig7",
    "ablation-alpha",
    "ablation-states",
    "ablation-decomposition",
    "ablation-quantize",
    "ablation-order",
    "ablation-online",
    "partitioning",
    "qos",
    "detection",
];

/// Bad command-line input, or a `--csv` directory that cannot be written:
/// one line on stderr and exit status 2.
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which != "all" && !EXPERIMENTS.contains(&which) {
        fail(&format!(
            "unknown experiment `{which}` (experiments: all {})",
            EXPERIMENTS.join(" ")
        ));
    }
    let cfg = ExperimentConfig::from_args(&args).unwrap_or_else(|e| fail(&e));
    let csv = cfg.csv.as_deref().map(|dir| {
        export::CsvExporter::new(dir)
            .unwrap_or_else(|e| fail(&format!("--csv {}: {e}", dir.display())))
    });
    let write_csv = |name: &str, columns: &[(&str, &[f64])]| {
        if let Some(e) = &csv {
            let p = e
                .write_columns(name, columns)
                .unwrap_or_else(|err| fail(&format!("--csv: writing {name}.csv: {err}")));
            println!("csv: {}", p.display());
        }
    };
    let frame_numbers = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };

    let run_one = |name: &str| {
        println!(
            "=== {name} {}",
            "=".repeat(60_usize.saturating_sub(name.len()))
        );
        match name {
            "fig2" => println!("{}", fig2::run(0.1).1),
            "fig3" => {
                let (r, text) = fig3::run(&cfg, 0.2);
                println!("{text}");
                write_csv(
                    "fig3",
                    &[
                        ("frame", &frame_numbers(r.series.len())),
                        ("rdg_ms", &r.series),
                        ("lpf", &r.lpf),
                        ("hpf", &r.hpf),
                    ],
                );
            }
            "fig5" => println!("{}", fig5::run().1),
            "fig6" => {
                let (r, text) = fig6::run(&cfg);
                println!("{text}");
                let kpx: Vec<f64> = r.points.iter().map(|p| p.roi_kpixels).collect();
                let mut cols: Vec<(String, Vec<f64>)> = vec![("roi_kpx".into(), kpx)];
                for (vi, &k) in cfg.fig6_stripes.iter().enumerate() {
                    cols.push((
                        format!("stripes_{k}_ms"),
                        r.points.iter().map(|p| p.latency_ms[vi]).collect(),
                    ));
                }
                let col_refs: Vec<(&str, &[f64])> = cols
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_slice()))
                    .collect();
                write_csv("fig6", &col_refs);
            }
            "fig7" => {
                let (r, text) = fig7::run(&cfg);
                println!("{text}");
                write_csv(
                    "fig7",
                    &[
                        ("frame", &frame_numbers(r.straightforward.len())),
                        ("straightforward_ms", &r.straightforward),
                        ("managed_ms", &r.managed),
                        ("predicted_ms", &r.predicted),
                    ],
                );
            }
            "table1" => println!("{}", table1::run().1),
            "table2" => println!("{}", table2::run(&cfg).1),
            "accuracy" => println!("{}", accuracy_exp::run(&cfg).1),
            "bandwidth-accuracy" => println!("{}", bandwidth_accuracy::run().1),
            "ablation-alpha" => println!("{}", ablation::alpha_sweep(&cfg).1),
            "ablation-states" => println!("{}", ablation::state_sweep(&cfg).1),
            "ablation-decomposition" => println!("{}", ablation::decomposition(&cfg).1),
            "ablation-quantize" => println!("{}", ablation::quantization(&cfg).1),
            "ablation-order" => println!("{}", ablation::order_sweep(&cfg).1),
            "ablation-online" => println!("{}", ablation::online_training(&cfg).1),
            "partitioning" => println!("{}", partitioning::run(&cfg).1),
            "qos" => println!("{}", qos_exp::run(&cfg).1),
            "detection" => println!("{}", detection::run(&cfg).1),
            other => unreachable!("`{other}` is checked against EXPERIMENTS"),
        }
    };

    if which == "all" {
        EXPERIMENTS.iter().for_each(|name| run_one(name));
    } else {
        run_one(which);
    }
}

/// Five runs of a measurement made from host timings, sorted: tests judge
/// the median (`[2]`), which a descheduled run cannot move.
#[cfg(test)]
fn five_sorted(mut run: impl FnMut() -> f64) -> [f64; 5] {
    let mut runs = [(); 5].map(|()| run());
    runs.sort_by(f64::total_cmp);
    runs
}
