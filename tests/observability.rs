//! Integration: the observability layer against a real faulted session.
//!
//! A 4-stream session (two streams under seeded fault injection) runs
//! with an [`Observability`] bundle attached. The metrics fed off the
//! event bus must agree *exactly* with the scheduler's own accounting:
//! `frames_executed` equals `SessionReport::total_frames`, the per-kind
//! fault counters equal the fault events each stream recorded, and the
//! Chrome-trace export contains complete spans for every executed stage
//! plus the per-stream thread metadata Perfetto uses for track names.

use triple_c::prelude::*;
use triple_c::runtime::faults::{FaultPlan, FaultPlanConfig};
use triple_c::xray::NoiseConfig;

fn seq(seed: u64, frames: usize) -> SequenceConfig {
    SequenceConfig {
        width: 128,
        height: 128,
        frames,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

fn trained_model() -> TripleC {
    let profile = run_sequence(
        seq(100, 10),
        &AppConfig::default(),
        &ExecutionPolicy::default(),
    );
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: 128,
            height: 128,
        },
    };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

fn faulted_report() -> (SessionReport, Observability) {
    let model = trained_model();
    let plan = FaultPlan::new(
        7,
        FaultPlanConfig {
            panic_rate: 0.4,
            channel_rate: 0.3,
            drop_rate: 0.15,
            ..Default::default()
        },
    );
    let specs: Vec<StreamSpec> = (0..4)
        .map(|i| {
            // infeasible in debug and release builds alike, so every frame
            // is planned at full stripe width and emits stage events
            let b = StreamSpec::builder(seq(300 + i, 10), AppConfig::default(), model.clone())
                .budget(LatencyBudget::new(1.0, 0.1));
            if i < 2 {
                b.faults(plan).build()
            } else {
                b.build()
            }
        })
        .collect();

    let obs = Observability::new();
    // the paper's 8 cores in four 2-core shards, one stream each
    let cfg = ServiceConfig {
        total_cores: 8,
        ..Default::default()
    };
    let report = ServiceCore::new(cfg)
        .with_observability(obs.clone())
        .run_batch(specs)
        .session;
    (report, obs)
}

#[test]
fn metrics_agree_exactly_with_session_report() {
    let (report, obs) = faulted_report();
    assert!(report.is_clean(), "failures: {:?}", report.failures);

    let snap = obs.snapshot();

    // frame counters match the scheduler's accounting exactly
    assert_eq!(
        snap.counter_total("frames_executed"),
        report.total_frames as u64
    );
    for s in &report.streams {
        assert_eq!(
            snap.counter("frames_executed", Labels::stream(s.stream)),
            s.trace.len() as u64,
            "stream {}",
            s.stream
        );
    }

    // fault counters match the per-stream fault-event logs
    let injected: usize = report
        .streams
        .iter()
        .flat_map(|s| &s.fault_events)
        .filter(|e| matches!(e, FrameEvent::FaultInjected { .. }))
        .count();
    assert!(injected > 0, "fault plan injected nothing");
    assert_eq!(snap.counter_total("faults_injected"), injected as u64);

    let retried: usize = report
        .streams
        .iter()
        .flat_map(|s| &s.fault_events)
        .filter(|e| matches!(e, FrameEvent::RetryAttempted { .. }))
        .count();
    assert_eq!(snap.counter_total("retries_attempted"), retried as u64);

    // dropped frames: injected drops reduce trace length, and the drop
    // counter carries the same number the stream results report
    let dropped: usize = report.streams.iter().map(|s| s.dropped_frames).sum();
    let drop_events: usize = report
        .streams
        .iter()
        .flat_map(|s| &s.fault_events)
        .filter(|e| {
            matches!(
                e,
                FrameEvent::FaultInjected {
                    kind: triple_c::platform::bus::FaultKind::FrameDrop,
                    ..
                }
            )
        })
        .count();
    assert_eq!(dropped, drop_events);

    // every executed frame produced a latency sample
    let lat_count: u64 = snap
        .histograms
        .iter()
        .filter(|h| h.name == "frame_latency_ms")
        .map(|h| h.count)
        .sum();
    assert_eq!(lat_count, report.total_frames as u64);

    // the report embeds the same snapshot
    let embedded = report.metrics.as_ref().expect("scheduler attached metrics");
    assert_eq!(
        embedded.counter_total("frames_executed"),
        report.total_frames as u64
    );
}

#[test]
fn chrome_trace_covers_stages_and_streams() {
    let (report, obs) = faulted_report();
    let json = obs.chrome_trace_json();

    // complete spans for stages and frames, instants for faults
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.contains("\"ph\": \"X\""), "no complete spans");
    assert!(json.contains("\"ph\": \"i\""), "no instant events");
    assert!(json.contains("\"name\": \"frame\""));
    assert!(json.contains("\"cat\": \"stage\""));
    assert!(json.contains("\"cat\": \"fault\""));

    // one thread_name metadata record per stream
    for s in &report.streams {
        assert!(
            json.contains(&format!("\"name\": \"stream {}\"", s.stream)),
            "missing thread_name for stream {}",
            s.stream
        );
    }

    // every striped stage shows up as a span by its task name; ENH and
    // ZOOM run as one call each and are no stage
    for task in ["RDG_ROI", "GW_EXT"] {
        assert!(json.contains(&format!("\"name\": \"{task}\"")), "{task}");
    }
    for task in ["ENH", "ZOOM"] {
        assert!(!json.contains(&format!("\"name\": \"{task}\"")), "{task}");
    }

    // span count: at least one frame span per executed frame
    let frame_spans = json.matches("\"name\": \"frame\"").count();
    assert_eq!(frame_spans, report.total_frames);
}

#[test]
fn self_overhead_is_metered() {
    let (_report, obs) = faulted_report();
    let overhead = obs.self_overhead_ms();
    assert!(overhead > 0.0, "subscriber never metered itself");
    // sanity ceiling: instrumenting a ~2 s session costs well under 1 s
    assert!(overhead < 1000.0, "overhead {overhead} ms is absurd");
}
