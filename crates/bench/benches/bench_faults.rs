//! Fault-injection soak benchmark: a 4-stream session swept across fault
//! rates, measuring recovery overhead and event volume.
//!
//! The `off` row runs with no `FaultInjector` hooked in — `step_on` skips
//! its injector-only sections — and is the baseline the
//! graceful-degradation machinery is judged against. Each faulted row
//! arms worker panics, transient channel errors, inflated stage times,
//! frame drops, and snapshot corruption at the given rate against a tight
//! latency budget, so every recovery policy (retry, serial fallback,
//! stripe downshift, model quarantine) gets exercised.
//!
//! Emits one JSON line per rate:
//! `{"name", "streams", "frames", "rate", "wall_ms", "aggregate_fps",
//!   "injected", "recovered", "degraded", "retries", "dropped_frames"}`.
//! `BENCH_faults.json` is produced by running with
//! `FAULTS_JSON=BENCH_faults.json`.

use pipeline::app::AppConfig;
use pipeline::executor::ExecutionPolicy;
use pipeline::runner::run_sequence;
use platform::bus::FrameEvent;
use runtime::{
    FaultPlan, FaultPlanConfig, LatencyBudget, ServiceConfig, ServiceCore, ShardLayout, StreamSpec,
};
use std::io::Write;
use std::sync::Arc;
use triplec::triple::{TripleC, TripleCConfig};
use xray::{NoiseConfig, SequenceConfig};

const WIDTH: usize = 128;
const HEIGHT: usize = 128;
const FRAMES: usize = 20;
const STREAMS: usize = 4;
const SEED: u64 = 0xFA17;

fn seq(seed: u64) -> SequenceConfig {
    SequenceConfig {
        width: WIDTH,
        height: HEIGHT,
        frames: FRAMES,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

fn trained_model() -> TripleC {
    let mut train = seq(900);
    train.frames = 10;
    let profile = run_sequence(train, &AppConfig::default(), &ExecutionPolicy::default());
    let cfg = TripleCConfig {
        geometry: triplec::FrameGeometry {
            width: WIDTH,
            height: HEIGHT,
        },
        ..Default::default()
    };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

fn main() {
    // injected stripe-worker panics are caught by the pool but still hit
    // the panic hook; silence exactly those so the report stays readable
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected stripe-worker fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let model = trained_model();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("# bench_faults: {host} host core(s), {STREAMS} streams x {FRAMES} frames");

    let mut lines = Vec::new();
    for &rate in &[0.0f64, 0.1, 0.3, 0.6] {
        let plan = FaultPlan::new(
            SEED,
            FaultPlanConfig {
                panic_rate: rate,
                channel_rate: rate,
                delay_rate: rate,
                delay_ms: 2.0,
                drop_rate: rate * 0.25,
                corrupt_rate: rate * 0.25,
            },
        );
        let specs: Vec<StreamSpec> = (0..STREAMS)
            .map(|i| {
                let b =
                    StreamSpec::builder(seq(1000 + i as u64), AppConfig::default(), model.clone())
                        .budget(LatencyBudget::new(5.0, 0.1));
                if rate > 0.0 {
                    b.faults(Arc::new(plan)).build()
                } else {
                    b.build()
                }
            })
            .collect();
        // four 2-core shards: all streams run at once, two stripes each
        let cfg = ServiceConfig {
            total_cores: 2 * STREAMS,
            layout: ShardLayout::Grouped { group: 2 },
            max_concurrent: STREAMS,
            ..Default::default()
        };
        let report = ServiceCore::new(cfg).run_batch(specs).session;
        assert!(
            report.is_clean(),
            "faulted soak run had stream failures: {:?}",
            report.failures
        );

        let mut injected = 0usize;
        let mut recovered = 0usize;
        let mut degraded = 0usize;
        let mut retries = 0usize;
        let mut dropped = 0usize;
        for s in &report.streams {
            dropped += s.dropped_frames;
            for e in &s.fault_events {
                match e {
                    FrameEvent::FaultInjected { .. } => injected += 1,
                    FrameEvent::Recovered { .. } => recovered += 1,
                    FrameEvent::DegradedMode { .. } => degraded += 1,
                    FrameEvent::RetryAttempted { .. } => retries += 1,
                    _ => {}
                }
            }
        }

        let name = if rate == 0.0 {
            "faults/off".to_string()
        } else {
            format!("faults/rate/{rate}")
        };
        let line = format!(
            "{{\"name\": \"{name}\", \"streams\": {STREAMS}, \"frames\": {}, \
             \"rate\": {rate}, \"wall_ms\": {:.1}, \"aggregate_fps\": {:.2}, \
             \"injected\": {injected}, \"recovered\": {recovered}, \
             \"degraded\": {degraded}, \"retries\": {retries}, \
             \"dropped_frames\": {dropped}}}",
            report.total_frames, report.wall_ms, report.aggregate_fps,
        );
        println!("{line}");
        lines.push(line);
    }

    if let Ok(path) = std::env::var("FAULTS_JSON") {
        let mut f = std::fs::File::create(&path).expect("create FAULTS_JSON file");
        for line in &lines {
            writeln!(f, "{line}").expect("write FAULTS_JSON");
        }
        eprintln!("# wrote {path}");
    }
}
