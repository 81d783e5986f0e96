//! Observability tour: run a four-stream faulted session with the
//! metrics registry and span tracer attached, print the metrics
//! snapshot, and export a Chrome trace.
//!
//! Run with: `cargo run --release --example observability`
//!
//! Then open `chrome://tracing` (or <https://ui.perfetto.dev>) and load
//! the printed `trace.json` path: each stream is a named track with
//! complete spans per stage and frame, plus instant markers for plans,
//! repartitions, faults and retries.

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

fn main() -> Result<()> {
    println!("training the model on a 10-frame profile...");
    let model = trained_model();

    // Four streams against an 8-core budget; two of them run under a
    // seeded fault plan (worker panics + transient channel errors), so
    // the trace also shows retries and recovery.
    let plan = FaultPlan::new(
        42,
        FaultPlanConfig {
            panic_rate: 0.3,
            channel_rate: 0.2,
            ..Default::default()
        },
    );
    let specs: Vec<StreamSpec> = (0..4)
        .map(|i| {
            let b = StreamSpec::builder(seq(500 + i, 12), AppConfig::default(), model.clone())
                .budget(LatencyBudget::new(5.0, 0.1));
            if i % 2 == 0 {
                b.faults(plan).build()
            } else {
                b.build()
            }
        })
        .collect();

    let obs = Observability::new();
    println!("running 4 streams x 12 frames (2 streams under fault injection)...");
    // the default service: 8 cores in four 2-core shards, one stream each
    let report = ServiceCore::new(ServiceConfig::default())
        .with_observability(obs.clone())
        .run_batch(specs)
        .session;

    println!(
        "\nsession: {} frames, {:.1} fps aggregate, {} failures",
        report.total_frames,
        report.aggregate_fps,
        report.failures.len()
    );

    // The metrics snapshot is also embedded in the report itself
    // (`report.metrics`); here we read it off the live registry.
    let snapshot = obs.snapshot();
    println!("\n--- metrics snapshot ---\n{snapshot}");
    println!(
        "metrics self-overhead: {:.3} ms total",
        obs.self_overhead_ms()
    );

    let out = std::env::temp_dir().join("triple_c_trace.json");
    std::fs::write(&out, obs.chrome_trace_json())?;
    println!(
        "\nwrote {} ({} spans) — load it in chrome://tracing or ui.perfetto.dev",
        out.display(),
        obs.spans().len()
    );
    Ok(())
}
