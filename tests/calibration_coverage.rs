//! Calibration property over the checked-in trace corpus: observed
//! frame latencies fall under the predicted p95 with coverage in
//! [0.90, 1.0].
//!
//! Every stream in `traces/{storm,burst,mixed}.trace` defines a
//! deterministic per-task cost process (the workload runner's
//! triangular fluctuation around area-scaled base costs, plus
//! seeded measurement noise — all derived from the stream's
//! checked-in geometry and seed). A Triple-C model trains on the
//! first `TRAIN_FRAMES` samples and then replays the next
//! `TEST_FRAMES` through a [`ResourceManager`]: each frame is
//! planned, "executed" with the process's observed task times, and
//! absorbed, so the manager's calibration tracker scores the
//! measured frame total against the plan's predicted p50/p95/p99.
//!
//! Host wall times are deliberately *not* the observed series here —
//! they are nondeterministic (the ledger keeps them in non-diffed
//! `#` notes for the same reason) and would make a coverage band
//! flaky. The seeded process gives the property an exact,
//! reproducible answer while still exercising the full
//! plan→execute→absorb calibration path on every corpus stream.
//!
//! The test phase is exactly the manager's 32-frame calibration
//! report interval, so one `CalibrationReport` fires on the bus and
//! the `calibration_p95` gauge must agree with the tracker.

use platform::trace::FrameRecord;
use rand::{Rng, SeedableRng};
use runtime::manager::{ManagerConfig, ResourceManager};
use runtime::workload::Trace;
use triple_c::prelude::*;
use triple_c::triplec::training::TaskSeries;
use triple_c::triplec::{FrameGeometry, Task};

/// Samples the model trains on.
const TRAIN_FRAMES: usize = 64;
/// Frames the calibration tracker scores (= one 32-frame report).
const TEST_FRAMES: usize = 32;

/// Per-megapixel base costs, ms (the workload runner's constants).
const BASE_MS_PER_MPIX: [f64; 9] = [
    2400.0, 300.0, 160.0, 500.0, 600.0, 200.0, 120.0, 800.0, 400.0,
];
/// One period of the triangular fluctuation, ±20 % around the base.
const WAVE: [f64; 8] = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5];
const WAVE_AMP: f64 = 0.2;
/// Seeded multiplicative measurement noise, ±5 %.
const NOISE_AMP: f64 = 0.05;

fn load_trace(name: &str) -> Trace {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{name}.trace"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Trace::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The deterministic observed cost of task `t` at frame `i` for a
/// stream of `mpix` megapixels: area-scaled base × triangular wave ×
/// seeded noise draw.
fn task_ms(t: usize, i: usize, mpix: f64, noise: f64) -> f64 {
    BASE_MS_PER_MPIX[t] * mpix * (1.0 + WAVE_AMP * WAVE[i % WAVE.len()]) * (1.0 + noise)
}

/// Runs the calibration pass for one stream of a parsed trace and
/// returns the manager's snapshot plus the attached observability
/// bundle.
fn calibrate(trace: &Trace, stream: usize) -> (CalibrationSnapshot, Observability) {
    let s = &trace.streams[stream];
    let mpix = (s.width * s.height) as f64 / 1.0e6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.seed);

    // the full observed process: per-task series over train + test
    let total = TRAIN_FRAMES + TEST_FRAMES;
    let series: Vec<Vec<f64>> = (0..Task::ALL.len())
        .map(|t| {
            (0..total)
                .map(|i| task_ms(t, i, mpix, rng.gen_range(-NOISE_AMP..NOISE_AMP)))
                .collect()
        })
        .collect();

    // train on the prefix; the scenario chain sees only full service,
    // so plans and executions agree on the active task set
    let train_series: Vec<TaskSeries> = Task::ALL
        .into_iter()
        .zip(&series)
        .map(|(task, values)| TaskSeries::new(task, values[..TRAIN_FRAMES].to_vec()))
        .collect();
    let scenarios = vec![7u8; TRAIN_FRAMES];
    let cfg = TripleCConfig {
        geometry: FrameGeometry {
            width: s.width,
            height: s.height,
        },
    };
    let mut model = TripleC::train(&train_series, &scenarios, cfg);
    // deployment mode (Section 6): the model keeps adapting online
    model.set_online_training(true);

    let mut manager = ResourceManager::for_stream(model, ManagerConfig::default(), 0);
    let obs = Observability::new();
    obs.attach(manager.bus_mut());

    let scenario = Scenario::from_id(7);
    let roi_kpixels = (s.width * s.height) as f64 / 1000.0;
    #[allow(clippy::needless_range_loop)] // `i` indexes the inner per-task series, not `series`
    for i in TRAIN_FRAMES..total {
        let _ = manager.plan(roi_kpixels);
        let task_times: Vec<(Task, f64)> = scenario
            .active_tasks()
            .into_iter()
            .map(|task| (task, series[task as usize][i]))
            .collect();
        let latency_ms = task_times.iter().map(|&(_, ms)| ms).sum();
        let out = pipeline::executor::FrameOutput {
            record: FrameRecord {
                frame: i,
                scenario: 7,
                task_times,
                latency_ms,
            },
            scenario,
            roi: None,
            roi_kpixels,
            couple_found: true,
            display: None,
        };
        manager.absorb(&out);
    }
    (manager.calibration(), obs)
}

#[test]
fn p95_coverage_over_trace_corpus() {
    for name in ["storm", "burst", "mixed"] {
        let trace = load_trace(name);
        for stream in 0..trace.streams.len() {
            let (snap, _) = calibrate(&trace, stream);
            assert_eq!(
                snap.frames, TEST_FRAMES as u32,
                "{name} s{stream}: tracker scored {} frames, expected {TEST_FRAMES}",
                snap.frames
            );
            assert!(
                (0.90..=1.0).contains(&snap.p95_coverage),
                "{name} s{stream}: p95 coverage {:.3} outside [0.90, 1.0] \
                 (p50 {:.3}, p99 {:.3})",
                snap.p95_coverage,
                snap.p50_coverage,
                snap.p99_coverage
            );
            // quantiles are nested, so coverage must be monotone
            assert!(
                snap.p50_coverage <= snap.p95_coverage && snap.p95_coverage <= snap.p99_coverage,
                "{name} s{stream}: coverage not monotone (p50 {:.3}, p95 {:.3}, p99 {:.3})",
                snap.p50_coverage,
                snap.p95_coverage,
                snap.p99_coverage
            );
        }
    }
}

#[test]
fn calibration_report_reaches_metrics() {
    // 32 scored frames cross the report interval exactly once, so the
    // bus→metrics path must hold the same coverage the tracker reports
    let trace = load_trace("storm");
    let (snap, obs) = calibrate(&trace, 0);
    let metrics = obs.snapshot();
    assert_eq!(
        metrics.counter_total("calibration_reports"),
        1,
        "expected exactly one CalibrationReport over {TEST_FRAMES} frames"
    );
    let gauge = metrics
        .gauges
        .iter()
        .find(|g| g.name == "calibration_p95")
        .expect("calibration_p95 gauge present after a report");
    assert!(
        (gauge.value - snap.p95_coverage).abs() < 1e-9,
        "gauge {:.6} != tracker {:.6}",
        gauge.value,
        snap.p95_coverage
    );
}
