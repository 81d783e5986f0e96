//! Quickstart: generate a synthetic angiography sequence, run the dynamic
//! pipeline, train Triple-C on the profile, and predict the next frame's
//! resource usage.
//!
//! Run with: `cargo run --release --example quickstart`

use triple_c::prelude::*;

fn main() {
    const SIZE: usize = 256;

    // 1. A synthetic X-ray sequence (the substitute for clinical data).
    let sequence = SequenceConfig {
        width: SIZE,
        height: SIZE,
        frames: 60,
        seed: 2024,
        ..Default::default()
    };

    // 2. Profile the dynamic pipeline over it (serial execution).
    println!(
        "profiling {} frames of the stent-enhancement pipeline...",
        sequence.frames
    );
    let profile = run_sequence(sequence, &AppConfig::default(), &ExecutionPolicy::default());
    let summary = triple_c::platform::metrics::summary_of(&profile.trace.latencies());
    println!(
        "  serial latency: mean {:.1} ms, band [{:.1}, {:.1}] ms",
        summary.mean, summary.min, summary.max
    );
    let hist = profile.trace.scenario_histogram();
    println!(
        "  scenario occupancy (of 8 switch combinations): {:?}",
        hist
    );

    // 3. Train the Triple-C model on the profile.
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: SIZE,
            height: SIZE,
        },
    };
    let model = TripleC::train(&profile.task_series(), &profile.scenarios, cfg);
    println!("\ntrained models (Table 2(b) style):");
    for (task, kind, name) in model.model_summary() {
        println!("  {task:<10} {kind:?}: {name}");
    }

    // 4. Predict the next frame's resources for the worst-case scenario.
    let ctx = PredictContext {
        roi_kpixels: (SIZE * SIZE) as f64 / 1000.0,
    };
    let prediction = model.predict_frame(Scenario::worst_case(), &ctx, 0.25);
    println!("\nworst-case scenario prediction:");
    for (task, ms) in &prediction.task_times {
        println!("  {task:<10} {ms:>7.2} ms");
    }
    println!("  total      {:>7.2} ms", prediction.total_ms);
    println!(
        "  inter-task bandwidth {:>8.1} MB/s",
        prediction.inter_task_bw / 1e6
    );
    println!(
        "  intra-task bandwidth {:>8.1} MB/s",
        prediction.intra_task_bw / 1e6
    );
    println!(
        "\nframe period at 30 Hz is {:.1} ms -> {}",
        model.frame_period_ms(),
        if prediction.total_ms > model.frame_period_ms() {
            "parallelization required (see `repro fig7`)"
        } else {
            "fits a single core"
        }
    );
}
