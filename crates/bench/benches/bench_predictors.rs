//! Distribution-aware predictor benchmark: the cost and quality of the
//! `Prediction` surface.
//!
//! Four sections, one JSON line per row:
//!
//! - `predictors/cost/<class>` — prediction cost per call, point
//!   estimate (`predict(ctx).mean_ms`) versus full distribution
//!   (`{"point_ns", "distribution_ns"}`): the API redesign must not
//!   make every plan pay for quantiles it already computed.
//! - `predictors/calibration/<class>` — observed p50/p95/p99 coverage
//!   of each predictor class over a held-out seeded series (online
//!   training on, the Section 6 deployment mode).
//! - `predictors/selection/switch` — champion/challenger switch
//!   latency under a level-shift drift: frames from drift onset to
//!   promotion, plus the shadow-scoring cost per absorbed frame.
//! - `predictors/admission/storm64` — the 64-stream mean-vs-p99
//!   admission comparison from the nightly soak: the storm trace tiled
//!   to 64 streams, replayed under both policies, per-stream SLO
//!   overruns (budget-infeasible frames at the granted width) counted.
//!
//! `BENCH_predictors.json` is produced by running with
//! `PREDICTORS_JSON=BENCH_predictors.json`.

use pipeline::executor::FrameOutput;
use platform::trace::FrameRecord;
use rand::{Rng, SeedableRng};
use runtime::selection::{ModelSelector, SelectionConfig};
use runtime::workload::{Trace, TraceRunner};
use runtime::{AdmissionPolicy, BackpressurePolicy, EvictionPolicy, ServiceConfig, ShardLayout};
use std::time::Instant;
use triplec::predictor::{
    ConstantPredictor, EwmaMarkovPredictor, LinearMarkovPredictor, PredictContext, Predictor,
};
use triplec::scenario::Scenario;
use triplec::training::TaskSeries;
use triplec::triple::{TripleC, TripleCConfig};

/// Samples each predictor trains on before measurement.
const TRAIN: usize = 64;
/// Held-out samples scored for calibration coverage.
const TEST: usize = 256;

/// Dwell-4 square wave with seeded ±5 % noise — positively
/// autocorrelated with CV ~0.25, the regime the EWMA+Markov class is
/// built for.
fn wave_series(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let base = if (i / 4) % 2 == 0 { lo } else { hi };
            base * (1.0 + rng.gen_range(-0.05..0.05))
        })
        .collect()
}

/// Per-call prediction cost: reading only the point estimate versus
/// consuming the full distribution, over `iters` calls.
fn cost_row(name: &str, p: &dyn Predictor, ctx: &PredictContext, iters: usize) -> String {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(p.predict(ctx).mean_ms);
    }
    let point_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(p.predict(ctx));
    }
    let dist_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    format!(
        "{{\"name\": \"predictors/cost/{name}\", \"iters\": {iters}, \
         \"point_ns\": {point_ns:.1}, \"distribution_ns\": {dist_ns:.1}}}"
    )
}

/// Walks a predictor over held-out samples (observing each one — the
/// deployment mode) and reports quantile coverage.
fn calibration_row(name: &str, p: &mut dyn Predictor, samples: &[(f64, PredictContext)]) -> String {
    let (mut le50, mut le95, mut le99) = (0usize, 0usize, 0usize);
    for &(actual, ref ctx) in samples {
        let pred = p.predict(ctx);
        if actual <= pred.p50_ms {
            le50 += 1;
        }
        if actual <= pred.p95_ms {
            le95 += 1;
        }
        if actual <= pred.p99_ms {
            le99 += 1;
        }
        p.observe(actual, ctx);
    }
    let n = samples.len() as f64;
    format!(
        "{{\"name\": \"predictors/calibration/{name}\", \"frames\": {}, \
         \"p50_coverage\": {:.3}, \"p95_coverage\": {:.3}, \"p99_coverage\": {:.3}}}",
        samples.len(),
        le50 as f64 / n,
        le95 as f64 / n,
        le99 as f64 / n,
    )
}

/// Champion/challenger switch latency: a champion frozen on a 30/50 ms
/// wave, live workload level-shifted to 60/80 ms; counts frames until
/// the shadow-training challenger is promoted.
fn selection_row() -> String {
    let series = vec![
        TaskSeries::new("RDG_FULL", wave_series(200, 30.0, 50.0, 11)),
        TaskSeries::new("MKX_EXT", vec![2.5; 200]),
    ];
    let scenarios = vec![1u8; 200];
    let mut champion = TripleC::train(&series, &scenarios, TripleCConfig::default());
    let cfg = SelectionConfig {
        enabled: true,
        ..Default::default()
    };
    let mut sel = ModelSelector::new(&champion, cfg);
    let ctx = PredictContext {
        roi_kpixels: 1000.0,
    };
    let shifted = wave_series(256, 60.0, 80.0, 12);
    let mut frames_to_switch = None;
    let start = Instant::now();
    let mut absorbed = 0usize;
    for (i, &rdg_ms) in shifted.iter().enumerate() {
        let out = FrameOutput {
            record: FrameRecord {
                frame: i,
                scenario: 1,
                task_times: vec![("RDG_FULL", rdg_ms), ("MKX_EXT", 2.5)],
                latency_ms: rdg_ms + 2.5,
            },
            scenario: Scenario::from_id(1),
            roi: None,
            roi_kpixels: 1000.0,
            couple_found: true,
            display: None,
        };
        absorbed += 1;
        if sel.absorb(&mut champion, &out, &ctx).is_some() {
            frames_to_switch = Some(absorbed);
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let frames = frames_to_switch.expect("level-shift drift must promote the challenger");
    format!(
        "{{\"name\": \"predictors/selection/switch\", \
         \"frames_to_switch\": {frames}, \"absorb_ns\": {:.0}}}",
        wall_ns / absorbed as f64,
    )
}

/// The nightly soak's 64-stream admission comparison (storm trace tiled
/// to 64 streams, 36 ms SLO, p99-feasibility planning in both runs).
fn admission_row() -> String {
    let path = format!("{}/../../traces/storm.trace", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("read storm trace");
    let storm = Trace::parse(&text).expect("parse storm trace");
    let mut base = storm.streams[0].clone();
    base.budget_ms = 36.0;
    let streams = (0..64u32)
        .map(|i| {
            let mut s = base.clone();
            s.id = i;
            s.seed = base.seed + u64::from(i);
            s
        })
        .collect();
    let trace = Trace {
        version: storm.version,
        streams,
    };
    let cfg = ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        queue_capacity: 64,
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::None,
        max_concurrent: 8,
    };
    let run = |policy: AdmissionPolicy| {
        let start = Instant::now();
        let r = TraceRunner::new(trace.clone())
            .with_service_config(cfg)
            .with_admission(policy)
            .with_planning_quantile(0.99)
            .run();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let overruns: usize = r
            .report
            .session
            .streams
            .iter()
            .map(|s| s.infeasible_frames)
            .sum();
        (overruns, wall_ms)
    };
    let (mean_overruns, mean_wall_ms) = run(AdmissionPolicy::Mean);
    let (p99_overruns, p99_wall_ms) = run(AdmissionPolicy::Quantile(0.99));
    format!(
        "{{\"name\": \"predictors/admission/storm64\", \"streams\": 64, \
         \"budget_ms\": 36.0, \"mean_overruns\": {mean_overruns}, \
         \"p99_overruns\": {p99_overruns}, \"mean_wall_ms\": {mean_wall_ms:.1}, \
         \"p99_wall_ms\": {p99_wall_ms:.1}}}"
    )
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("# bench_predictors: {host} host core(s)");
    let mut lines = Vec::new();

    // --- prediction cost per call, point vs distribution ---
    let ctx = PredictContext {
        roi_kpixels: 1000.0,
    };
    let iters = 1_000_000usize;
    let ewma = EwmaMarkovPredictor::train(&wave_series(TRAIN, 30.0, 50.0, 1), 0.2, 24, "BENCH");
    lines.push(cost_row("ewma_markov", &ewma, &ctx, iters));
    let points: Vec<(f64, f64)> = wave_series(TRAIN, 30.0, 50.0, 2)
        .iter()
        .enumerate()
        .map(|(i, &ms)| (800.0 + (i % 8) as f64 * 50.0, ms))
        .collect();
    let linear = LinearMarkovPredictor::train(&points, 24, "BENCH");
    lines.push(cost_row("linear_markov", &linear, &ctx, iters));
    let constant = ConstantPredictor::train(&vec![40.0; TRAIN]);
    lines.push(cost_row("constant", &constant, &ctx, iters));

    // --- calibration coverage per predictor class ---
    let fixed_ctx = || PredictContext {
        roi_kpixels: 1000.0,
    };
    let mut ewma = EwmaMarkovPredictor::train(&wave_series(TRAIN, 30.0, 50.0, 3), 0.2, 24, "BENCH");
    let held_out: Vec<(f64, PredictContext)> = wave_series(TEST, 30.0, 50.0, 4)
        .into_iter()
        .map(|ms| (ms, fixed_ctx()))
        .collect();
    lines.push(calibration_row("ewma_markov", &mut ewma, &held_out));

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let roi_sample = |rng: &mut rand::rngs::StdRng| -> (f64, f64) {
        let roi = rng.gen_range(400.0..1600.0);
        let ms = 5.0 + 0.03 * roi * (1.0 + rng.gen_range(-0.05..0.05));
        (roi, ms)
    };
    let train_pts: Vec<(f64, f64)> = (0..TRAIN).map(|_| roi_sample(&mut rng)).collect();
    let mut linear = LinearMarkovPredictor::train(&train_pts, 24, "BENCH");
    let held_out: Vec<(f64, PredictContext)> = (0..TEST)
        .map(|_| {
            let (roi, ms) = roi_sample(&mut rng);
            (ms, PredictContext { roi_kpixels: roi })
        })
        .collect();
    lines.push(calibration_row("linear_markov", &mut linear, &held_out));

    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut constant = ConstantPredictor::train(
        &(0..TRAIN)
            .map(|_| 40.0 * (1.0 + rng.gen_range(-0.02..0.02)))
            .collect::<Vec<_>>(),
    );
    let held_out: Vec<(f64, PredictContext)> = (0..TEST)
        .map(|_| (40.0 * (1.0 + rng.gen_range(-0.02..0.02)), fixed_ctx()))
        .collect();
    lines.push(calibration_row("constant", &mut constant, &held_out));

    // --- champion/challenger switch latency ---
    lines.push(selection_row());

    // --- 64-stream mean-vs-p99 admission comparison ---
    lines.push(admission_row());

    for line in &lines {
        println!("{line}");
    }
    if let Ok(path) = std::env::var("PREDICTORS_JSON") {
        use std::io::Write;
        let mut f = std::fs::File::create(&path).expect("create PREDICTORS_JSON file");
        for line in &lines {
            writeln!(f, "{line}").expect("write PREDICTORS_JSON");
        }
        eprintln!("# wrote {path}");
    }
}
