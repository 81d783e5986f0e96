//! Training and test corpora.
//!
//! The paper trains its prediction models on 37 video sequences totalling
//! 1,921 frames, with "different scenarios ... to create the dynamics in
//! algorithmic adaptation and switching" (Section 7). This module scripts a
//! corpus of the same shape: 37 sequences (36 x 52 + 1 x 49 = 1,921
//! frames) spanning quiet, busy, bolus, hidden-device and panning
//! scenarios. A disjoint-seed test corpus provides the held-out sequences
//! for the accuracy experiments.

use crate::device::DeviceConfig;
use crate::phantom::PhantomConfig;
use crate::scenario::{HiddenEpisode, ScenarioConfig};
use crate::sequence::SequenceConfig;

/// Number of sequences in the paper's training set.
const TRAIN_SEQUENCES: usize = 37;

/// Builds one corpus sequence configuration.
///
/// `variant` cycles through five scenario archetypes; geometry parameters
/// are perturbed per index so every sequence differs.
fn corpus_sequence(
    index: usize,
    frames: usize,
    width: usize,
    height: usize,
    seed_base: u64,
) -> SequenceConfig {
    let seed = seed_base.wrapping_add(index as u64 * 7919);
    let variant = index % 5;
    let scenario = match variant {
        // quiet baseline: moderate contrast, no episodes
        0 => ScenarioConfig {
            base_contrast: 0.35,
            ..Default::default()
        },
        // busy: high contrast, strong drift (heavy RDG load, long-term)
        1 => ScenarioConfig {
            base_contrast: 0.65,
            drift_amp: 0.3,
            drift_period: 120.0,
            ..Default::default()
        },
        // bolus: contrast-injection episodes (RDG switch toggles)
        2 => ScenarioConfig {
            base_contrast: 0.3,
            bolus: vec![
                HiddenEpisode {
                    start: frames / 5,
                    len: frames / 6,
                },
                HiddenEpisode {
                    start: 3 * frames / 5,
                    len: frames / 6,
                },
            ],
            ..Default::default()
        },
        // hidden device during contrast injection: the ROI-estimation
        // switch stays off for a long stretch, so full-frame RDG runs
        // under strong, drifting vessel load (the Fig. 3 regime)
        3 => ScenarioConfig {
            base_contrast: 0.5,
            drift_amp: 0.35,
            drift_period: 90.0,
            hidden: vec![HiddenEpisode {
                start: frames / 6,
                len: frames / 2,
            }],
            bolus: vec![HiddenEpisode {
                start: frames / 4,
                len: frames / 4,
            }],
            ..Default::default()
        },
        // panning: registration failures
        _ => ScenarioConfig {
            base_contrast: 0.4,
            panning: vec![HiddenEpisode {
                start: frames / 2,
                len: 4,
            }],
            pan_speed: 6.0,
            ..Default::default()
        },
    };
    let phantom = PhantomConfig {
        branches: 2 + (index % 4),
        depth: 420.0 + 40.0 * (index % 3) as f32,
        ..Default::default()
    };
    let device = DeviceConfig {
        marker_distance: 20.0 + (index % 5) as f64 * 3.0,
        angle: 0.15 * (index % 7) as f64,
        ..Default::default()
    };
    SequenceConfig {
        width,
        height,
        frames,
        seed,
        phantom,
        device,
        scenario,
        ..Default::default()
    }
}

/// The training corpus: 37 sequence configurations, 1,921 frames total,
/// rendered at `width x height`.
pub fn training_corpus(width: usize, height: usize) -> Vec<SequenceConfig> {
    let mut out = Vec::with_capacity(TRAIN_SEQUENCES);
    for i in 0..TRAIN_SEQUENCES {
        let frames = if i == TRAIN_SEQUENCES - 1 { 49 } else { 52 };
        out.push(corpus_sequence(i, frames, width, height, 0xA11C_E000));
    }
    out
}

/// A held-out test corpus with disjoint seeds (default: 8 sequences of 52
/// frames).
pub fn test_corpus(width: usize, height: usize) -> Vec<SequenceConfig> {
    (0..8)
        .map(|i| corpus_sequence(i, 52, width, height, 0xBEEF_0000))
        .collect()
}

/// A single long sequence for the Fig. 3 trace (1,750+ frames in the
/// paper); uses the busy archetype so the contrast drift is visible.
pub fn long_trace_sequence(width: usize, height: usize, frames: usize) -> SequenceConfig {
    let mut cfg = corpus_sequence(1, frames, width, height, 0xCAFE_0000);
    cfg.frames = frames;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_corpus_matches_paper_shape() {
        let corpus = training_corpus(128, 128);
        assert_eq!(corpus.len(), TRAIN_SEQUENCES);
        let total: usize = corpus.iter().map(|c| c.frames).sum();
        assert_eq!(total, 1921);
    }

    #[test]
    fn sequences_have_distinct_seeds() {
        let corpus = training_corpus(128, 128);
        let mut seeds: Vec<u64> = corpus.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), TRAIN_SEQUENCES);
    }

    #[test]
    fn corpus_spans_scenario_archetypes() {
        let corpus = training_corpus(128, 128);
        assert!(corpus.iter().any(|c| !c.scenario.bolus.is_empty()));
        assert!(corpus.iter().any(|c| !c.scenario.hidden.is_empty()));
        assert!(corpus.iter().any(|c| !c.scenario.panning.is_empty()));
        assert!(corpus.iter().any(|c| c.scenario.bolus.is_empty()
            && c.scenario.hidden.is_empty()
            && c.scenario.panning.is_empty()));
    }

    #[test]
    fn test_corpus_disjoint_from_training() {
        let train = training_corpus(128, 128);
        let test = test_corpus(128, 128);
        for t in &test {
            assert!(train.iter().all(|c| c.seed != t.seed));
        }
    }

    #[test]
    fn long_trace_has_requested_length() {
        let cfg = long_trace_sequence(128, 128, 1750);
        assert_eq!(cfg.frames, 1750);
    }

    #[test]
    fn geometry_varies_across_corpus() {
        let corpus = training_corpus(128, 128);
        let distances: std::collections::BTreeSet<u64> = corpus
            .iter()
            .map(|c| c.device.marker_distance as u64)
            .collect();
        assert!(distances.len() >= 3, "marker distances {:?}", distances);
    }
}
