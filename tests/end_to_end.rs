//! End-to-end integration: synthetic sequence → dynamic pipeline →
//! Triple-C training → managed execution, with ground-truth checks.

use triple_c::pipeline::app::{AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, ExecutionPolicy};
use triple_c::pipeline::runner::run_sequence;
use triple_c::platform::metrics::{percentile, summary_of};
use triple_c::runtime::manager::ManagerConfig;
use triple_c::runtime::{LatencyBudget, StreamEngine, StreamResult, StreamSpec};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

use std::sync::{Mutex, MutexGuard};

const SIZE: usize = 128;

/// Every test here holds the host while it runs. Two of them judge frame
/// latency on the wall clock, and a managed engine stripes over all of the
/// host's cores; a sibling test on one of those cores would be timed into
/// its frames.
static HOST: Mutex<()> = Mutex::new(());

fn hold_host() -> MutexGuard<'static, ()> {
    HOST.lock().unwrap_or_else(|e| e.into_inner())
}

fn sequence(seed: u64, frames: usize) -> SequenceConfig {
    sized_sequence(SIZE, seed, frames)
}

fn sized_sequence(size: usize, seed: u64, frames: usize) -> SequenceConfig {
    SequenceConfig {
        width: size,
        height: size,
        frames,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

/// One stream through the managed closed loop, no scheduler involved.
fn run_managed(seq: SequenceConfig, app: &AppConfig, model: TripleC) -> StreamResult {
    let spec = StreamSpec::builder(seq, app.clone(), model).build();
    StreamEngine::new(0, spec, ManagerConfig::default().cores)
        .run()
        .expect("no injector, no unrecoverable frame")
}

/// A model trained on a serial profile of `seq`.
fn trained_on(seq: SequenceConfig, app: &AppConfig) -> TripleC {
    let geometry = triple_c::triplec::FrameGeometry {
        width: seq.width,
        height: seq.height,
    };
    let profile = run_sequence(seq, app, &ExecutionPolicy::default());
    let cfg = TripleCConfig { geometry };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

/// The pipeline's selected marker couple must coincide with the rendered
/// ground-truth markers (the whole point of the analysis chain).
#[test]
fn detected_markers_match_ground_truth() {
    let _host = hold_host();
    let app = AppConfig::default();
    let policy = ExecutionPolicy::default();
    let mut state = AppState::new(SIZE, SIZE);
    let mut checked = 0;
    for frame in SequenceGenerator::new(sequence(71, 12)) {
        let truth_a = frame.truth.marker_a;
        let truth_b = frame.truth.marker_b;
        let out = process_frame(frame.index, &frame.image, &mut state, &app, &policy);
        if let (Some(roi), Some((ax, ay)), Some((bx, by))) = (out.roi, truth_a, truth_b) {
            // tracked ROI must contain both true markers
            assert!(
                roi.contains(ax as usize, ay as usize),
                "frame {}: ROI {roi} misses marker A ({ax:.0},{ay:.0})",
                frame.index
            );
            assert!(
                roi.contains(bx as usize, by as usize),
                "frame {}: ROI {roi} misses marker B ({bx:.0},{by:.0})",
                frame.index
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "tracking established in only {checked} frames"
    );
}

/// Training on a profile and predicting on the same distribution must give
/// high frame-level accuracy (the in-sample sanity floor of the paper's
/// 97% out-of-sample figure).
#[test]
fn trained_model_predicts_its_own_distribution() {
    let _host = hold_host();
    let app = AppConfig::default();
    let model = trained_on(sequence(72, 20), &app);

    let report = run_managed(sequence(72, 20), &app, model).accuracy;
    assert!(report.count >= 19);
    assert!(
        report.mean_accuracy > 0.55,
        "in-sample frame accuracy only {:.2}",
        report.mean_accuracy
    );
}

/// The managed run must keep the effective latency band no wider than the
/// serial run's (the Fig. 7 direction).
#[test]
fn managed_band_not_wider_than_serial() {
    let _host = hold_host();
    let app = AppConfig::default();
    let serial = run_sequence(sequence(73, 16), &app, &ExecutionPolicy::default());
    let s = summary_of(&serial.trace.latencies());

    let model = trained_on(sequence(74, 16), &app);
    let managed = run_managed(sequence(73, 16), &app, model);
    let m = summary_of(&managed.trace.latencies());

    assert!(
        m.max <= s.max * 1.35,
        "managed max {:.1} far above serial max {:.1}",
        m.max,
        s.max
    );
}

/// An unbudgeted stream's first frame is a full frame, and the planner
/// runs it at the stripe count it predicts fastest: on a host with two or
/// more cores that is more than one. Striping moves no pixel.
#[test]
fn unbudgeted_first_frame_stripes_and_keeps_its_pixels() {
    let _host = hold_host();
    let cores = ManagerConfig::default().cores;
    if cores < 2 {
        eprintln!("one core: nothing to stripe over");
        return;
    }
    let app = AppConfig::default();
    let seq = sized_sequence(512, 75, 4);
    let model = trained_on(seq.clone(), &app);
    let run = |cores: usize| {
        let spec = StreamSpec::builder(seq.clone(), app.clone(), model.clone()).build();
        StreamEngine::new(0, spec, cores)
            .run()
            .expect("no injector, no unrecoverable frame")
    };
    let wide = run(cores);
    let one = run(1);
    assert!(
        wide.stripes[0] > 1,
        "frame 0 ran at {} stripes",
        wide.stripes[0]
    );
    assert!(wide.budget.is_some() && one.stripes.iter().all(|&s| s == 1));
    assert_eq!(wide.trace.scenarios(), one.trace.scenarios());
    assert_eq!(wide.displays, one.displays);
    assert!(
        wide.displays.iter().any(Option::is_some),
        "nothing displayed"
    );
}

/// Scenario ids recorded by the pipeline must be consistent with the task
/// sets of the triplec scenario table across a dynamic run.
#[test]
fn recorded_scenarios_consistent_with_state_table() {
    let _host = hold_host();
    let app = AppConfig::default();
    let profile = run_sequence(sequence(75, 14), &app, &ExecutionPolicy::default());
    for rec in profile.trace.records() {
        let scenario = triple_c::triplec::scenario::Scenario::from_id(rec.scenario);
        for &(task, _) in &rec.task_times {
            assert!(
                scenario.active_tasks().contains(task),
                "frame {}: task {task} ran outside scenario {:?}",
                rec.frame,
                scenario
            );
        }
    }
}

/// Determinism: two identical runs produce identical scenario sequences
/// and task sets (times differ, switching must not).
#[test]
fn scenario_switching_is_deterministic() {
    let _host = hold_host();
    let app = AppConfig::default();
    let a = run_sequence(sequence(76, 12), &app, &ExecutionPolicy::default());
    let b = run_sequence(sequence(76, 12), &app, &ExecutionPolicy::default());
    assert_eq!(a.scenarios, b.scenarios);
}

/// A frame's latency is the wall time the frame took: the executor's
/// `latency_ms` nests inside the engine's per-frame wall time, and the
/// gap (plan and absorb) stays small. A tight budget makes the manager
/// stripe, and never over more cores than the host has.
#[test]
fn frame_latency_is_the_engine_wall_clock() {
    let _host = hold_host();
    let app = AppConfig::default();
    let model = trained_on(sized_sequence(512, 998, 12), &app);
    let spec = StreamSpec::builder(sized_sequence(512, 999, 20), app, model)
        .budget(LatencyBudget::new(1.2, 0.1))
        .build();
    let result = StreamEngine::new(0, spec, ManagerConfig::default().cores)
        .run()
        .expect("no injector, no unrecoverable frame");

    let records = result.trace.records();
    assert_eq!(records.len(), result.frame_wall_ms.len());
    let mut gaps = Vec::with_capacity(records.len());
    for (rec, &wall_ms) in records.iter().zip(&result.frame_wall_ms) {
        assert!(
            rec.latency_ms <= wall_ms,
            "frame {}: latency {:.3} ms above its wall time {wall_ms:.3} ms",
            rec.frame,
            rec.latency_ms
        );
        gaps.push(wall_ms - rec.latency_ms);
    }
    let median_gap = percentile(&gaps, 0.5);
    assert!(
        median_gap < 0.1,
        "median plan + absorb gap {median_gap:.3} ms"
    );

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        result.stripes.iter().all(|&k| k <= host),
        "stripes {:?} on {host} cores",
        result.stripes
    );
    assert!(
        host == 1 || result.stripes.iter().any(|&k| k > 1),
        "the tight budget never striped: {:?}",
        result.stripes
    );
}
