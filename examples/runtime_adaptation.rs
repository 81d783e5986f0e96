//! Semi-automatic parallelization in action (the Fig. 7 mechanism):
//! a straightforward serial mapping vs. the Triple-C-managed run over a
//! dynamic sequence with scenario switching.
//!
//! Run with: `cargo run --release --example runtime_adaptation`

use triple_c::pipeline::latency::{jitter, jitter_reduction, DelayLine};
use triple_c::prelude::*;
use triple_c::xray::{HiddenEpisode, ScenarioConfig};

fn dynamic_sequence(size: usize, frames: usize, seed: u64) -> SequenceConfig {
    SequenceConfig {
        width: size,
        height: size,
        frames,
        seed,
        scenario: ScenarioConfig {
            bolus: vec![HiddenEpisode {
                start: frames / 4,
                len: frames / 6,
            }],
            panning: vec![HiddenEpisode {
                start: frames / 2,
                len: 3,
            }],
            ..Default::default()
        },
        ..Default::default()
    }
}

fn main() {
    const SIZE: usize = 256;
    const FRAMES: usize = 80;
    let app = AppConfig::default();

    // training corpus: same content family, disjoint seeds
    println!("training Triple-C on 3 x 40 frames...");
    let corpus: Vec<SequenceConfig> = (0..3)
        .map(|i| dynamic_sequence(SIZE, 40, 700 + i))
        .collect();
    let profile = run_corpus(corpus, &app, &ExecutionPolicy::default());
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: SIZE,
            height: SIZE,
        },
    };
    let mut model = TripleC::train(&profile.task_series(), &profile.scenarios, cfg);
    // Section 6 deployment mode: the model keeps adapting to the live
    // stream (a frozen model would drift away from the measured times)
    model.set_online_training(true);

    // baseline: straightforward serial mapping
    println!("running the straightforward (serial) mapping...");
    let test = dynamic_sequence(SIZE, FRAMES, 999);
    let baseline = run_sequence(test.clone(), &app, &ExecutionPolicy::default());
    let base_lat = baseline.trace.latencies();

    // managed: Triple-C predictions drive per-frame repartitioning
    println!("running the Triple-C-managed (semi-auto parallel) mapping...");
    let spec = StreamSpec::builder(test, app.clone(), model).build();
    let managed = StreamEngine::new(0, spec, ManagerConfig::default().cores)
        .run()
        .expect("no injector, no unrecoverable frame");
    let managed_lat = managed.trace.latencies();

    // the clinically relevant number is the *output* latency: the delay
    // line holds early frames at the budget (frame 0 initializes it)
    let budget = managed.budget.expect("budget set after first frame");
    let delay = DelayLine::new(budget.target_ms);
    let output_lat: Vec<f64> = managed_lat
        .iter()
        .skip(1)
        .map(|&c| delay.output_latency(c))
        .collect();

    let b = platform_summary(&base_lat);
    let m = platform_summary(&output_lat);
    println!("\n                      mean      min      max   (max-mean)/mean");
    println!(
        "straightforward  {:>8.1} {:>8.1} {:>8.1}   {:>6.0}%",
        b.0,
        b.1,
        b.2,
        b.3 * 100.0
    );
    println!(
        "semi-auto output {:>8.1} {:>8.1} {:>8.1}   {:>6.0}%",
        m.0,
        m.1,
        m.2,
        m.3 * 100.0
    );

    let red = jitter_reduction(&jitter(&base_lat), &jitter(&output_lat));
    println!(
        "\njitter (std) reduction: {:.0}% (paper reports ~70%)",
        red * 100.0
    );
    println!(
        "prediction accuracy over the run: {:.1}% (paper reports 97%)",
        managed.accuracy.mean_accuracy * 100.0
    );
    println!("latency budget held at {:.1} ms", budget.target_ms);
    println!("\nper-frame stripe choices: {:?}", managed.stripes);
}

fn platform_summary(lat: &[f64]) -> (f64, f64, f64, f64) {
    let s = triple_c::platform::metrics::summary_of(lat);
    (s.mean, s.min, s.max, s.worst_vs_avg)
}
