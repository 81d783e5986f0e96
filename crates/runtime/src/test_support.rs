//! Fixtures shared by the crate's unit tests.

use pipeline::app::AppConfig;
use pipeline::executor::ExecutionPolicy;
use pipeline::runner::run_sequence;
use triplec::triple::{TripleC, TripleCConfig};
use xray::{NoiseConfig, SequenceConfig};

/// A low-noise 128² sequence.
pub(crate) fn seq(seed: u64, frames: usize) -> SequenceConfig {
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

/// A model trained on a short profiled run, so managed loops have real
/// predictions to plan with.
pub(crate) fn trained_model() -> TripleC {
    let profile = run_sequence(
        seq(100, 10),
        &AppConfig::default(),
        &ExecutionPolicy::default(),
    );
    let cfg = TripleCConfig {
        geometry: triplec::FrameGeometry {
            width: 128,
            height: 128,
        },
    };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

/// Poisons `lock` from a thread that panics while holding it.
pub(crate) fn poison<T: Send>(lock: &std::sync::Mutex<T>) {
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let _held = lock.lock();
            panic!("poisoning a lock");
        });
        assert!(holder.join().is_err());
    });
    assert!(lock.is_poisoned());
}
