//! Scenario-storm coverage: a scripted rapid-switch storm (idle ⇄
//! full-service every frame — a transition pattern the Markov scenario
//! chain was never trained on) must trip the prediction-drift detector,
//! quarantine the model, retrain the scenario chain from the observed
//! storm, and *recover*: the retrained chain predicts the alternation,
//! so the quarantine lifts and never re-fires even though the storm
//! keeps thrashing.
//!
//! The trace carries no fault plan: every stream records its fault-family
//! events, so the drift quarantine's replay keys land in the ledger's
//! fault family without one.

use runtime::workload::{Trace, TraceRunner};
use runtime::{BackpressurePolicy, EvictionPolicy, ServiceConfig, ShardLayout};
use triple_c::platform::metrics::Observability;

const STORM: &str = "triplec-trace v1\n\
    stream 0 profile=stent width=96 height=96 frames=26 seed=61 budget_ms=40\n\
    arrival 0 fixed period_ms=10\n\
    scenario 0 thrash ids=0,7 period=1 cycles=13\n";

fn pinned_config() -> ServiceConfig {
    ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        queue_capacity: 4,
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::None,
        max_concurrent: 8,
    }
}

fn run_storm() -> (runtime::workload::RunLedger, Observability) {
    let obs = Observability::new();
    let report = TraceRunner::new(Trace::parse(STORM).expect("storm trace parses"))
        .with_service_config(pinned_config())
        .with_observability(obs.clone())
        .with_drift(0.5, 6)
        .run();
    assert!(
        report.report.session.is_clean(),
        "{:?}",
        report.report.session.failures
    );
    (report.ledger, obs)
}

#[test]
fn rapid_switch_storm_quarantines_retrains_and_recovers() {
    let (ledger, obs) = run_storm();

    let quarantines: Vec<&String> = ledger
        .faults
        .iter()
        .filter(|k| k.contains("degraded/model-quarantine<-prediction-drift"))
        .collect();
    assert_eq!(
        quarantines.len(),
        1,
        "drift must fire exactly once: retrained chain predicts the \
         alternation, so accuracy recovers and the detector stays quiet \
         for the rest of the storm: {:?}",
        ledger.faults
    );

    let recovered: Vec<&String> = ledger
        .faults
        .iter()
        .filter(|k| k.contains("recovered/prediction-drift"))
        .collect();
    assert_eq!(
        recovered.len(),
        1,
        "quarantine never lifted: {:?}",
        ledger.faults
    );

    // the recovery lands after the quarantine, on the same stream
    let q_frame = frame_of(quarantines[0]);
    let r_frame = frame_of(recovered[0]);
    assert!(
        r_frame > q_frame,
        "recovered at f{r_frame} before quarantine at f{q_frame}"
    );

    // the quarantine cycle surfaced in the metrics plane too
    // (`model_retrains` can't isolate the drift retrain: the manager
    // emits a per-frame `ModelRetrained` for routine absorption)
    let snap = obs.snapshot();
    assert_eq!(snap.counter_total("degraded_mode"), 1);
    assert_eq!(snap.counter_total("recovered"), 1);

    // the storm itself executed cleanly: every frame ran, alternating
    // scenarios for the scripted prefix
    assert_eq!(ledger.entries.len(), 26);
    for e in &ledger.entries {
        assert_eq!(
            e.outcome,
            runtime::workload::FrameOutcome::Executed,
            "frame {}",
            e.frame
        );
    }
    for e in ledger.entries.iter().take(26) {
        let expect = if e.frame % 2 == 0 { 0 } else { 7 };
        assert_eq!(e.scenario, Some(expect), "frame {}", e.frame);
    }
}

/// Drift detection, retraining, and recovery are all deterministic: a
/// second replay of the storm produces a ledger-identical run, drift
/// keys included.
#[test]
fn storm_replay_is_ledger_identical() {
    let (a, _) = run_storm();
    let (b, _) = run_storm();
    let diff = a.diff(&b.to_text());
    assert!(diff.is_empty(), "storm replay diverged: {diff:?}");
    assert!(
        a.faults.iter().any(|k| k.contains("prediction-drift")),
        "drift keys present in the diffable plane"
    );
}

/// Without the drift knob the same storm runs clean: no quarantine, no
/// retrain — the detector is strictly opt-in.
#[test]
fn storm_without_drift_detection_stays_quiet() {
    let obs = Observability::new();
    let report = TraceRunner::new(Trace::parse(STORM).expect("storm trace parses"))
        .with_service_config(pinned_config())
        .with_observability(obs.clone())
        .run();
    assert!(report.report.session.is_clean());
    assert!(
        report.ledger.faults.is_empty(),
        "no fault plan and no drift knob must record no fault event: {:?}",
        report.ledger.faults
    );
    assert_eq!(obs.snapshot().counter_total("degraded_mode"), 0);
    assert_eq!(obs.snapshot().counter_total("recovered"), 0);
}

/// Extracts the frame index from a replay key (`s0/f12/...`).
fn frame_of(key: &str) -> usize {
    key.split('/')
        .nth(1)
        .and_then(|f| f.strip_prefix('f'))
        .and_then(|f| f.parse().ok())
        .expect("replay key carries a frame")
}
