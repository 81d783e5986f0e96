//! The repo benchmark. See `README.md` beside this package for the metric
//! and workload definitions; `BENCHMARK.json` at the repo root registers it.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --smoke [--workload <name>] [--trace [0|1]]
//! ```
//!
//! Without `--trace` a run reports the six end-to-end metrics; with it, the
//! per-layer metrics, timed around the benchmark's own calls into each
//! layer. The last line of standard output is the result as one JSON object.

mod host;
mod inputs;
mod ladder;
mod spans;
mod stats;
mod workloads;

use inputs::{Inputs, Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Pass;

/// Fewest measured passes a timed run makes, however slow the host.
const MIN_PASSES: usize = 3;

#[derive(Clone, Copy)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    update_golden: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--update-golden]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 18.0,
        trace: false,
        smoke: false,
        update_golden: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                // bare `--trace` turns tracing on; the driver passes 0 or 1
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--update-golden" => args.update_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back: the counts and the metrics of its mode.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Set-up, repeated: render, train, serial reference digests and one
/// warm-up pass. Returns the last repetition's inputs, the median set-up
/// time and the counts of the warm-up passes.
fn set_up(w: Workload, args: &Args, scale: &Scale) -> Result<(Inputs, f64, usize, usize), String> {
    let mut times = Vec::with_capacity(scale.setup_reps);
    let mut attempted = 0;
    let mut failed = 0;
    let mut last = None;
    for rep in 0..scale.setup_reps.max(1) {
        // the previous repetition's frames go before the next are made, so
        // peak RSS holds one set of inputs however often set-up repeats
        drop(last.take());
        let t0 = Instant::now();
        let inputs = inputs::build(w, scale, args.seed);
        let warm = workloads::run_pass(&inputs, scale);
        times.push(t0.elapsed().as_secs_f64());
        attempted += warm.attempted;
        failed += warm.failed;
        if rep == 0 {
            failed += inputs.check(args.seed, scale, args.update_golden)?;
        }
        last = Some(inputs);
    }
    let inputs = last.expect("at least one set-up");
    Ok((inputs, stats::median(&times), attempted, failed))
}

/// Whole passes until `--seconds` of measuring are up (at least
/// `MIN_PASSES`), or the fixed count of the smoke scale.
fn measure(inputs: &Inputs, scale: &Scale, seconds: f64) -> Vec<Pass> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    loop {
        passes.push(workloads::run_pass(inputs, scale));
        let enough = match scale.fixed_passes {
            Some(n) => passes.len() >= n,
            None => passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return passes;
        }
    }
}

fn end_to_end(w: Workload, args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let (inputs, setup_s, mut attempted, mut failed) = set_up(w, args, scale)?;
    let passes = measure(&inputs, scale, args.seconds);
    attempted += passes.iter().map(|p| p.attempted).sum::<usize>();
    failed += passes.iter().map(|p| p.failed).sum::<usize>();
    // percentiles per pass, then the median over passes: pooled over the run
    // a p95 sits wherever the host's slowest stretch put it (one slow pass
    // in seven fills the whole top 5 %), which spread it 22 % between runs
    let per_pass = |p: f64| -> Vec<f64> {
        passes
            .iter()
            .map(|pass| stats::percentile(&pass.lat_ms, p))
            .collect()
    };
    let samples: usize = passes.iter().map(|p| p.lat_ms.len()).sum();
    let fps: Vec<f64> = passes.iter().map(Pass::fps).collect();
    // /proc counts CPU in 10 ms ticks, too coarse for one pass: summed over
    // every timed region the step falls below 0.1 % of the value
    let cpu_ms: f64 = passes.iter().map(|p| p.cpu_ms).sum();
    let frames: usize = passes.iter().map(|p| p.frames).sum();
    println!(
        "# {} passes, {} latency samples, full-frame share {:.3}, per-pass fps {:?}",
        passes.len(),
        samples,
        inputs.fullframe_share(),
        fps.iter()
            .map(|f| (f * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("fps", stats::median(&fps), "1/s"),
            metric("lat_ms_p50", stats::median(&per_pass(0.50)), "ms"),
            metric("lat_ms_p95", stats::median(&per_pass(0.95)), "ms"),
            metric("cpu_ms_per_frame", cpu_ms / frames.max(1) as f64, "ms"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ],
    })
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Runs one workload in one mode and prints its report, the JSON line last.
fn run(w: Workload, args: &Args, scale: &Scale, host_tag: &str) -> Result<bool, String> {
    println!(
        "# {} mode={} seed={} seconds={} scale={} {host_tag}",
        w.name(),
        if args.trace { "trace" } else { "end-to-end" },
        args.seed,
        args.seconds,
        if scale.smoke { "smoke" } else { "full" },
    );
    let outcome = if args.trace {
        ladder::run(w, args.seed, scale)?
    } else {
        end_to_end(w, args, scale)?
    };
    for m in &outcome.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{:<34} {:>14}", "ops_attempted", outcome.attempted);
    println!("{:<34} {:>14}", "ops_failed", outcome.failed);
    println!("{}", json_line(&outcome));
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    // a bare `--smoke` checks everything: all workloads, both modes
    let runs: Vec<(Workload, bool)> = match args.workload {
        Some(w) => vec![(w, args.trace)],
        None => Workload::ALL
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
    };
    let host_tag = host::tag();
    let mut all_ok = true;
    for (w, trace) in runs {
        let args = Args { trace, ..args };
        match run(w, &args, &scale, &host_tag) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
