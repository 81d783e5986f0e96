//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!   `repro <experiment> [--size N] [--frames N] [--corpus-scale X] [--stripes a,b,..]`
//!
//! Experiments: fig2 fig3 fig5 fig6 fig7 table1 table2 accuracy
//!              bandwidth-accuracy ablation-alpha ablation-states
//!              ablation-decomposition ablation-quantize ablation-order
//!              ablation-online partitioning all
//!
//! Analytic experiments (fig2, fig5, table1, bandwidth-accuracy) always use
//! the paper's 1024x1024 / 4 MB-L2 parameters; measured experiments render
//! synthetic sequences at `--size` (default 256).

use bench_harness::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    let cfg = match ExperimentConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };
    let csv = export::csv_dir_from_args(&args)
        .map(|d| export::CsvExporter::new(&d).expect("create csv dir"));

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
                if let Some(e) = &csv {
                    let frames: Vec<f64> = (0..r.series.len()).map(|i| i as f64).collect();
                    let p = e
                        .write_columns(
                            "fig3",
                            &[
                                ("frame", &frames),
                                ("rdg_ms", &r.series),
                                ("lpf", &r.lpf),
                                ("hpf", &r.hpf),
                            ],
                        )
                        .expect("write csv");
                    println!("csv: {}", p.display());
                }
            }
            "fig5" => println!("{}", fig5::run().1),
            "fig6" => {
                let (r, text) = fig6::run(&cfg);
                println!("{text}");
                if let Some(e) = &csv {
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
                    let p = e.write_columns("fig6", &col_refs).expect("write csv");
                    println!("csv: {}", p.display());
                }
            }
            "fig7" => {
                let (r, text) = fig7::run(&cfg);
                println!("{text}");
                if let Some(e) = &csv {
                    let frames: Vec<f64> = (0..r.straightforward.len()).map(|i| i as f64).collect();
                    let p = e
                        .write_columns(
                            "fig7",
                            &[
                                ("frame", &frames),
                                ("straightforward_ms", &r.straightforward),
                                ("managed_ms", &r.managed),
                                ("predicted_ms", &r.predicted),
                            ],
                        )
                        .expect("write csv");
                    println!("csv: {}", p.display());
                }
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
            other => eprintln!("unknown experiment: {other} (see --help in source)"),
        }
    };

    if which == "all" {
        for name in [
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
        ] {
            run_one(name);
        }
    } else {
        run_one(which);
    }
}
