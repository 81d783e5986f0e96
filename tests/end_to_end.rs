//! End-to-end integration: synthetic sequence → dynamic pipeline →
//! Triple-C training → managed execution, with ground-truth checks.

use triple_c::pipeline::app::{AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, ExecutionPolicy};
use triple_c::pipeline::runner::run_sequence;
use triple_c::platform::metrics::summary_of;
use triple_c::runtime::manager::ManagerConfig;
use triple_c::runtime::{StreamEngine, StreamResult, StreamSpec};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

const SIZE: usize = 128;

fn sequence(seed: u64, frames: usize) -> SequenceConfig {
    SequenceConfig {
        width: SIZE,
        height: SIZE,
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

/// The pipeline's selected marker couple must coincide with the rendered
/// ground-truth markers (the whole point of the analysis chain).
#[test]
fn detected_markers_match_ground_truth() {
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
    let app = AppConfig::default();
    let profile = run_sequence(sequence(72, 20), &app, &ExecutionPolicy::default());
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: SIZE,
            height: SIZE,
        },
        ..Default::default()
    };
    let model = TripleC::train(&profile.task_series(), &profile.scenarios, cfg);

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
    let app = AppConfig::default();
    let serial = run_sequence(sequence(73, 16), &app, &ExecutionPolicy::default());
    let s = summary_of(&serial.trace.latencies());

    let profile = run_sequence(sequence(74, 16), &app, &ExecutionPolicy::default());
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: SIZE,
            height: SIZE,
        },
        ..Default::default()
    };
    let model = TripleC::train(&profile.task_series(), &profile.scenarios, cfg);
    let managed = run_managed(sequence(73, 16), &app, model);
    let m = summary_of(&managed.trace.latencies());

    assert!(
        m.max <= s.max * 1.35,
        "managed max {:.1} far above serial max {:.1}",
        m.max,
        s.max
    );
}

/// Scenario ids recorded by the pipeline must be consistent with the task
/// sets of the triplec scenario table across a dynamic run.
#[test]
fn recorded_scenarios_consistent_with_state_table() {
    let app = AppConfig::default();
    let profile = run_sequence(sequence(75, 14), &app, &ExecutionPolicy::default());
    for rec in profile.trace.records() {
        let scenario = triple_c::triplec::scenario::Scenario::from_id(rec.scenario);
        for (task, _) in &rec.task_times {
            assert!(
                scenario.runs(task),
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
    let app = AppConfig::default();
    let a = run_sequence(sequence(76, 12), &app, &ExecutionPolicy::default());
    let b = run_sequence(sequence(76, 12), &app, &ExecutionPolicy::default());
    assert_eq!(a.scenarios, b.scenarios);
}
