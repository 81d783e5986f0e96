//! Pins the pixels `SequenceGenerator` renders, frame stream by frame
//! stream, to FNV-1a digests.
//!
//! Every suite, every `repro` figure and the benchmark's golden digests
//! start from these frames, so a render change that moves one bit shows up
//! here first, with the configuration that moved. The configurations cover
//! the benchmark's 128² corpus noise, the content script's hidden, bolus
//! and panning episodes, the full 1024² frame, and frames whose noise
//! redraws a uniform (a zero-topped draw in the Box-Muller sampler, about
//! one 1024² frame in eight): 128² seed 3 frame 46, 128² seed 34 frame 29,
//! 256² seed 5 frame 18 and 1024² seed 1 frame 1.
//!
//! Like `examples/benchmark/golden/*.digest`, the digests depend on the
//! host's libm (`expf`, `logf`, `cosf`).

mod common;

use common::fnv1a;
use triple_c::xray::{
    HiddenEpisode, NoiseConfig, ScenarioConfig, SequenceConfig, SequenceGenerator,
};

/// FNV-1a 64 over every frame's dimensions and little-endian pixels, in
/// stream order.
fn stream_digest(cfg: SequenceConfig) -> u64 {
    let mut bytes = Vec::new();
    for frame in SequenceGenerator::new(cfg) {
        let img = &frame.image;
        for d in [img.width() as u32, img.height() as u32] {
            bytes.extend(d.to_le_bytes());
        }
        for &px in img.as_slice() {
            bytes.extend(px.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// The 128² stream of the benchmark's fan-in corpus.
fn corpus_128(seed: u64, frames: usize) -> SequenceConfig {
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

#[test]
fn corpus_128_frames_are_pinned() {
    assert_eq!(stream_digest(corpus_128(3, 47)), 0xec1f_c4ef_b0db_f48c);
    assert_eq!(stream_digest(corpus_128(34, 30)), 0x18d6_d2c7_85de_40a3);
}

#[test]
fn scripted_256_frames_are_pinned() {
    let episode = |start, len| vec![HiddenEpisode { start, len }];
    let cfg = SequenceConfig {
        width: 256,
        height: 256,
        frames: 20,
        seed: 5,
        scenario: ScenarioConfig {
            hidden: episode(3, 3),
            bolus: episode(8, 6),
            panning: episode(16, 4),
            ..Default::default()
        },
        ..Default::default()
    };
    assert_eq!(stream_digest(cfg), 0xf399_c65b_a032_9c8e);
}

#[test]
fn full_size_frames_are_pinned() {
    let cfg = SequenceConfig {
        width: 1024,
        height: 1024,
        frames: 2,
        seed: 1,
        ..Default::default()
    };
    assert_eq!(stream_digest(cfg), 0x54e7_eea5_5f98_cfee);
}
