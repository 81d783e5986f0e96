//! Property tests over seeded fault plans: for **any** `FaultPlan`, a
//! faulted session terminates (no deadlock), recovers every injected
//! fault (each `FaultInjected` is matched by a terminal `Recovered` or
//! `DegradedMode` on the same stream and frame), and produces frame
//! outputs **bit-identical** to an unfaulted run for every frame that was
//! not dropped.
//!
//! Dropped frames suppress state updates for that frame, so the
//! bit-identity reference for plans with a nonzero drop rate is a
//! *drops-only* run of the same seed (identical drop schedule, no other
//! faults): recovery from panics, channel errors, and stage delays must
//! be output-transparent relative to it. When the plan drops nothing the
//! reference is exactly the nominal run.
//!
//! Historical failure cases are pinned in
//! `fault_properties.proptest-regressions` and promoted to the explicit
//! unit tests at the bottom (the vendored offline proptest does not
//! replay regression files).

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use triple_c::pipeline::app::AppConfig;
use triple_c::pipeline::executor::ExecutionPolicy;
use triple_c::pipeline::runner::run_sequence;
use triple_c::platform::bus::FrameEvent;
use triple_c::runtime::{
    FaultPlan, FaultPlanConfig, LatencyBudget, ServiceConfig, ServiceCore, SessionReport,
    ShardLayout, StreamSpec,
};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig};

const FRAMES: usize = 3;

fn seq(seed: u64) -> SequenceConfig {
    SequenceConfig {
        width: 96,
        height: 96,
        frames: FRAMES,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

/// One trained model shared across all cases (training is the expensive
/// part; every spec clones it anyway). `TripleC` is `Send` but not
/// `Sync`, so the shared copy lives behind a mutex.
fn model() -> TripleC {
    static MODEL: OnceLock<Mutex<TripleC>> = OnceLock::new();
    let shared = MODEL.get_or_init(|| {
        let mut train_seq = seq(100);
        train_seq.frames = 10;
        let profile = run_sequence(
            train_seq,
            &AppConfig::default(),
            &ExecutionPolicy::default(),
        );
        let cfg = TripleCConfig {
            geometry: triple_c::triplec::FrameGeometry {
                width: 96,
                height: 96,
            },
        };
        Mutex::new(TripleC::train(
            &profile.task_series(),
            &profile.scenarios,
            cfg,
        ))
    });
    shared.lock().unwrap().clone()
}

/// One stream through the service tier on a single 8-core shard over the
/// global pool, so a tight budget is granted (and stripes across) up to
/// all eight cores.
fn run_one(spec: StreamSpec) -> SessionReport {
    let cfg = ServiceConfig {
        layout: ShardLayout::Single,
        ..Default::default()
    };
    ServiceCore::new(cfg).run_batch(vec![spec]).session
}

fn spec_with(stream_seed: u64, budget: LatencyBudget, plan: Option<FaultPlan>) -> StreamSpec {
    let b = StreamSpec::builder(seq(stream_seed), AppConfig::default(), model()).budget(budget);
    match plan {
        Some(p) => b.faults(p).build(),
        None => b.build(),
    }
}

/// Every `FaultInjected` must be matched by a terminal event — a
/// `Recovered` of the same kind or a `DegradedMode` caused by it — on the
/// same stream and frame.
fn assert_inject_terminal_pairing(events: &[FrameEvent]) {
    for e in events {
        if let FrameEvent::FaultInjected {
            stream,
            frame,
            kind,
        } = e
        {
            let matched = events.iter().any(|t| match t {
                FrameEvent::Recovered {
                    stream: s,
                    frame: f,
                    kind: k,
                    ..
                } => s == stream && f == frame && k == kind,
                FrameEvent::DegradedMode {
                    stream: s,
                    frame: f,
                    cause,
                    ..
                } => s == stream && f == frame && cause == kind,
                _ => false,
            });
            assert!(
                matched,
                "injected fault without a terminal event: s{stream}/f{frame}/{}",
                kind.name()
            );
        }
    }
}

/// The shared property body: runs a faulted session against its
/// drops-only reference and checks termination, recovery, and
/// bit-identity of non-dropped outputs.
fn check_plan_preserves_outputs(
    fault_seed: u64,
    stream_seed: u64,
    cfg: FaultPlanConfig,
) -> Result<(), proptest::TestCaseError> {
    // a tight budget forces striped plans so the pool-level faults
    // actually reach a striped dispatch
    let budget = LatencyBudget::new(5.0, 0.1);
    let faulted = run_one(spec_with(
        stream_seed,
        budget,
        Some(FaultPlan::new(fault_seed, cfg)),
    ));
    let reference = run_one(spec_with(
        stream_seed,
        budget,
        Some(FaultPlan::new(
            fault_seed,
            FaultPlanConfig {
                drop_rate: cfg.drop_rate,
                ..Default::default()
            },
        )),
    ));

    prop_assert!(faulted.is_clean(), "failures: {:?}", faulted.failures);
    prop_assert!(reference.is_clean());
    let f = &faulted.streams[0];
    let r = &reference.streams[0];

    // the session terminated with every non-dropped frame accounted for
    prop_assert_eq!(f.trace.len() + f.dropped_frames, FRAMES);
    prop_assert!(
        f.dropped_frames == r.dropped_frames,
        "drop schedules diverged"
    );

    // non-dropped frames are bit-identical to the unfaulted reference
    let frames_f: Vec<usize> = f.trace.records().iter().map(|rec| rec.frame).collect();
    let frames_r: Vec<usize> = r.trace.records().iter().map(|rec| rec.frame).collect();
    prop_assert_eq!(&frames_f, &frames_r);
    prop_assert_eq!(f.trace.scenarios(), r.trace.scenarios());
    prop_assert_eq!(f.displays.len(), r.displays.len());
    for (i, (df, dr)) in f.displays.iter().zip(&r.displays).enumerate() {
        prop_assert!(
            df == dr,
            "frame {} (record {i}): faulted display differs from reference",
            frames_f[i]
        );
    }

    // every injected fault reached a terminal recovery/degradation
    assert_inject_terminal_pairing(&f.fault_events);
    Ok(())
}

proptest! {
    /// Termination + graceful recovery + bit-identical non-dropped output
    /// for arbitrary seeds and rates.
    #[test]
    fn any_plan_terminates_recovers_and_preserves_outputs(
        fault_seed in 0u64..u64::MAX / 2,
        stream_seed in 0u64..1000,
        panic_rate in 0.0f64..0.7,
        channel_rate in 0.0f64..0.7,
        delay_on in any::<bool>(),
        drop_rate in 0.0f64..0.4,
        corrupt_rate in 0.0f64..0.4,
    ) {
        let cfg = FaultPlanConfig {
            panic_rate,
            channel_rate,
            delay_rate: if delay_on { 0.5 } else { 0.0 },
            delay_ms: 2.0,
            drop_rate,
            corrupt_rate,
        };
        check_plan_preserves_outputs(fault_seed, stream_seed, cfg)?;
    }

    /// Replaying a seed reproduces the faulted run event-for-event, under
    /// an impossible, a tight and a generous budget: the impossible one
    /// stripes every frame over all cores, so pool faults meet real
    /// striped dispatches and retries.
    #[test]
    fn any_plan_replays_event_for_event(
        fault_seed in 0u64..u64::MAX / 2,
        stream_seed in 0u64..1000,
        rate in 0.05f64..0.6,
        budget_pick in 0usize..3,
    ) {
        let cfg = FaultPlanConfig {
            panic_rate: rate,
            channel_rate: rate,
            delay_rate: rate,
            delay_ms: 1.0,
            drop_rate: rate * 0.5,
            corrupt_rate: rate * 0.5,
        };
        let budget = LatencyBudget::new([0.001, 5.0, 10_000.0][budget_pick], 0.1);
        let run = || {
            let report = run_one(spec_with(
                stream_seed,
                budget,
                Some(FaultPlan::new(fault_seed, cfg)),
            ));
            prop_assert!(report.is_clean());
            let keys: Vec<String> = report.streams[0]
                .fault_events
                .iter()
                .filter_map(|e| e.replay_key())
                .collect();
            assert_inject_terminal_pairing(&report.streams[0].fault_events);
            Ok(keys)
        };
        let first = run()?;
        let second = run()?;
        prop_assert_eq!(&first, &second);
    }
}

/// Historical regression pinned from
/// `fault_properties.proptest-regressions`: a plan combining a frame drop
/// with pool faults on the frames around it must still match its
/// drops-only reference (the drop suppresses state updates, so the
/// reference — not the nominal run — carries the expected downstream
/// outputs). Promoted to an explicit unit test because the vendored
/// offline proptest does not replay regression files.
#[test]
fn drop_adjacent_pool_faults_regression() {
    check_plan_preserves_outputs(
        0x0BAD_F00D_5EED_0431,
        431,
        FaultPlanConfig {
            panic_rate: 0.65,
            channel_rate: 0.65,
            delay_rate: 0.5,
            delay_ms: 2.0,
            drop_rate: 0.39,
            corrupt_rate: 0.2,
        },
    )
    .unwrap();
}
