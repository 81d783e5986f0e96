//! Synthetic angiography sequence generation.
//!
//! Composes the phantom, device, motion, scenario and noise models into a
//! deterministic per-seed frame stream with ground truth, substituting for
//! the clinical X-ray sequences the paper trained on.

use crate::canvas::{polyline_stamps, shade_rows, Stamp};
use crate::device::{render_device, DeviceConfig};
use crate::motion::{apply_motion, motion_at, MotionConfig, MotionState};
use crate::noise::{add_noise, band_rngs, NoiseConfig};
use crate::phantom::{generate_tree, PhantomConfig, Vessel};
use crate::scenario::{ContentState, ScenarioConfig, ScenarioProcess};
use imaging::image::{ImageF32, ImageU16, Pixel, Roi};
use imaging::parallel::StripePool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Full configuration of one synthetic sequence.
#[derive(Debug, Clone)]
pub struct SequenceConfig {
    /// Frame width, pixels (the paper uses 1024).
    pub width: usize,
    /// Frame height, pixels.
    pub height: usize,
    /// Number of frames.
    pub frames: usize,
    /// Master seed; every frame derives its own deterministic sub-seed.
    pub seed: u64,
    /// Vessel-tree parameters.
    pub phantom: PhantomConfig,
    /// Device geometry. A zero `center` is replaced by the frame center.
    pub device: DeviceConfig,
    /// Noise model.
    pub noise: NoiseConfig,
    /// Content script.
    pub scenario: ScenarioConfig,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        Self {
            width: 256,
            height: 256,
            frames: 52,
            seed: 1,
            phantom: PhantomConfig::default(),
            device: DeviceConfig::default(),
            noise: NoiseConfig::default(),
            scenario: ScenarioConfig::default(),
        }
    }
}

/// Ground truth attached to each generated frame.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// True position of marker A (if the device is visible).
    pub marker_a: Option<(f64, f64)>,
    /// True position of marker B.
    pub marker_b: Option<(f64, f64)>,
    /// Content state of the frame.
    pub content: ContentState,
    /// Motion state (including panning).
    pub motion: MotionState,
}

/// One generated frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index within the sequence.
    pub index: usize,
    /// The rendered detector image.
    pub image: ImageU16,
    /// Ground truth for verification and accuracy experiments.
    pub truth: GroundTruth,
}

/// Detector background level (counts).
const BACKGROUND: f32 = 2200.0;
/// Tissue shading: vertical gradient and vignette depth (counts).
const SHADING: (f32, f32) = (120.0, 250.0);

/// What every row band of one frame paints: the frame's size, its
/// absorber stamps in drawing order and the noise model.
struct Scene<'a> {
    width: usize,
    height: usize,
    stamps: &'a [Stamp],
    noise: &'a NoiseConfig,
}

impl Scene<'_> {
    /// Paints the frame's rows from `y0` on into `rows` (f32 scratch of
    /// whole rows) and narrows them into `out`, the same rows of the
    /// frame: background, shading, every stamp in order, then the noise,
    /// drawn from `rng` as it stands at the band's first pixel.
    fn paint(&self, y0: usize, rows: &mut [f32], out: &mut [Pixel], rng: &mut StdRng) {
        rows.fill(BACKGROUND);
        shade_rows(rows, (self.width, self.height), y0, SHADING.0, SHADING.1);
        for stamp in self.stamps {
            stamp.apply_rows(rows, self.width, y0);
        }
        add_noise(rows, self.noise, rng);
        // as `ImageF32::to_u16` narrows
        for (o, &v) in out.iter_mut().zip(rows.iter()) {
            *o = v.clamp(0.0, Pixel::MAX as f32) as Pixel;
        }
    }
}

/// Streaming frame generator (implements [`Iterator`]).
pub struct SequenceGenerator {
    cfg: SequenceConfig,
    vessels: Vec<Vessel>,
    scenario: ScenarioProcess,
    next_frame: usize,
}

impl SequenceGenerator {
    /// Builds the generator (synthesizes the per-sequence vessel tree).
    pub fn new(mut cfg: SequenceConfig) -> Self {
        if cfg.device.center == (0.0, 0.0) {
            cfg.device.center = (cfg.width as f64 / 2.0, cfg.height as f64 / 2.0);
        }
        let mut tree_rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9));
        let vessels = generate_tree(cfg.width, cfg.height, &cfg.phantom, &mut tree_rng);
        let scenario = ScenarioProcess::new(cfg.scenario.clone());
        Self {
            cfg,
            vessels,
            scenario,
            next_frame: 0,
        }
    }

    /// The static vessel tree of this sequence.
    pub fn vessels(&self) -> &[Vessel] {
        &self.vessels
    }

    /// The next frame, rendered on `pool`.
    pub(crate) fn next_on(&mut self, pool: &StripePool) -> Option<Frame> {
        if self.next_frame >= self.cfg.frames {
            return None;
        }
        let index = self.next_frame;
        self.next_frame += 1;
        // deterministic per-frame RNG derived from the master seed
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(index as u64),
        );
        let content = self.scenario.step(index, &mut rng);
        Some(self.render(pool, index, &content, rng))
    }

    /// Renders frame `index` given a content state and the frame's
    /// generator, in one row band per worker of `pool` (one band, on the
    /// calling thread, for a pool without workers).
    ///
    /// The calling thread draws the motion and lists the absorber stamps
    /// (vessels, wire, stent struts, markers), then records where the
    /// noise stream stands at each band's first pixel ([`band_rngs`]).
    /// Every pixel gets the same f32 operations in the same order whichever
    /// band paints it, so the frame's bits do not depend on the band count.
    fn render(
        &self,
        pool: &StripePool,
        index: usize,
        content: &ContentState,
        mut rng: StdRng,
    ) -> Frame {
        let cfg = &self.cfg;
        let mut motion = motion_at(&MotionConfig::default(), index, &mut rng);
        motion.dx += content.pan_dx;

        // vessels, scaled by the frame's contrast factor
        let mut stamps = Vec::new();
        let frame_center = (cfg.width as f64 / 2.0, cfg.height as f64 / 2.0);
        for vessel in &self.vessels {
            let moved: Vec<(f64, f64)> = vessel
                .path
                .iter()
                .map(|&(x, y)| apply_motion(&motion, x, y, frame_center.0, frame_center.1))
                .collect();
            let depth = vessel.depth * content.vessel_contrast as f32;
            if depth > 1.0 {
                stamps.extend(polyline_stamps(&moved, depth, vessel.sigma));
            }
        }

        // device
        let (marker_a, marker_b) = if content.device_visible {
            let (a, b) = render_device(&mut stamps, &cfg.device, &motion, frame_center);
            (Some(a), Some(b))
        } else {
            (None, None)
        };

        let scene = &Scene {
            width: cfg.width,
            height: cfg.height,
            stamps: &stamps,
            noise: &cfg.noise,
        };
        let parts = Roi::full(cfg.width, cfg.height).stripes(pool.threads().max(1));
        let rngs = band_rngs(rng, &parts);
        let mut canvas = ImageF32::new(cfg.width, cfg.height);
        let mut image = ImageU16::new(cfg.width, cfg.height);
        let jobs = canvas
            .row_bands(&parts)
            .zip(image.row_bands(&parts))
            .zip(parts.iter().zip(rngs))
            .map(|((rows, out), (part, mut rng))| move || scene.paint(part.y, rows, out, &mut rng));
        if parts.len() > 1 {
            pool.run(
                jobs.map(|job| Box::new(job) as Box<dyn FnOnce() + Send + '_>)
                    .collect(),
            );
        } else {
            jobs.for_each(|mut job| job());
        }
        Frame {
            index,
            image,
            truth: GroundTruth {
                marker_a,
                marker_b,
                content: *content,
                motion,
            },
        }
    }
}

impl Iterator for SequenceGenerator {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        self.next_on(StripePool::global())
    }
}

impl ExactSizeIterator for SequenceGenerator {
    fn len(&self) -> usize {
        self.cfg.frames - self.next_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HiddenEpisode;

    fn small_cfg(seed: u64) -> SequenceConfig {
        SequenceConfig {
            width: 128,
            height: 128,
            frames: 6,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn yields_requested_frame_count() {
        let frames: Vec<Frame> = SequenceGenerator::new(small_cfg(1)).collect();
        assert_eq!(frames.len(), 6);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.image.dims(), (128, 128));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<Frame> = SequenceGenerator::new(small_cfg(5)).collect();
        let b: Vec<Frame> = SequenceGenerator::new(small_cfg(5)).collect();
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.image, fb.image);
        }
        let c: Vec<Frame> = SequenceGenerator::new(small_cfg(6)).collect();
        assert_ne!(a[0].image, c[0].image);
    }

    #[test]
    fn markers_are_dark_spots_at_truth_positions() {
        let cfg = SequenceConfig {
            noise: NoiseConfig {
                quantum_scale: 0.0,
                electronic_std: 0.0,
            },
            ..small_cfg(2)
        };
        let frame = SequenceGenerator::new(cfg).next().unwrap();
        let (ax, ay) = frame.truth.marker_a.unwrap();
        let marker_val = frame.image.get(ax.round() as usize, ay.round() as usize) as f64;
        // background nearby (20 px off-axis)
        let bg_val = frame
            .image
            .get((ax + 20.0).round() as usize, ay.round() as usize) as f64;
        assert!(
            marker_val < bg_val - 300.0,
            "marker {marker_val} bg {bg_val}"
        );
    }

    #[test]
    fn hidden_device_has_no_truth_markers() {
        let cfg = SequenceConfig {
            scenario: ScenarioConfig {
                hidden: vec![HiddenEpisode { start: 0, len: 2 }],
                ..Default::default()
            },
            ..small_cfg(3)
        };
        let frames: Vec<Frame> = SequenceGenerator::new(cfg).collect();
        assert!(frames[0].truth.marker_a.is_none());
        assert!(frames[2].truth.marker_a.is_some());
    }

    #[test]
    fn device_center_resolves_to_frame_center() {
        let gen = SequenceGenerator::new(small_cfg(4));
        assert_eq!(gen.cfg.device.center, (64.0, 64.0));
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let mut gen = SequenceGenerator::new(small_cfg(1));
        assert_eq!(gen.len(), 6);
        gen.next();
        assert_eq!(gen.len(), 5);
    }

    #[test]
    fn bolus_frames_have_more_vessel_signal() {
        let mk = |bolus: bool| {
            let cfg = SequenceConfig {
                noise: NoiseConfig {
                    quantum_scale: 0.0,
                    electronic_std: 0.0,
                },
                scenario: ScenarioConfig {
                    ar_std: 0.0,
                    drift_amp: 0.0,
                    bolus: if bolus {
                        vec![HiddenEpisode { start: 0, len: 2 }]
                    } else {
                        vec![]
                    },
                    ..Default::default()
                },
                ..small_cfg(7)
            };
            let frame = SequenceGenerator::new(cfg).next().unwrap();
            frame.image.mean()
        };
        // more contrast agent = more absorption = darker mean
        assert!(mk(true) < mk(false) - 1.0);
    }

    #[test]
    fn motion_moves_markers_between_frames() {
        let frames: Vec<Frame> = SequenceGenerator::new(SequenceConfig {
            frames: 20,
            ..small_cfg(8)
        })
        .collect();
        let mut max_move = 0.0f64;
        for w in frames.windows(2) {
            if let (Some(a0), Some(a1)) = (w[0].truth.marker_a, w[1].truth.marker_a) {
                let d = ((a1.0 - a0.0).powi(2) + (a1.1 - a0.1).powi(2)).sqrt();
                max_move = max_move.max(d);
            }
        }
        assert!(max_move > 0.5, "markers never moved: {max_move}");
    }

    #[test]
    fn band_count_does_not_move_a_bit() {
        // frame 18 of seed 5 at 256² redraws a noise uniform
        let cfg = SequenceConfig {
            width: 256,
            height: 256,
            frames: 20,
            seed: 5,
            ..Default::default()
        };
        let render_on = |workers| {
            let pool = StripePool::new(workers);
            let mut gen = SequenceGenerator::new(cfg.clone());
            std::iter::from_fn(|| gen.next_on(&pool))
                .map(|f| f.image)
                .collect::<Vec<_>>()
        };
        let one_band = render_on(0);
        assert_eq!(one_band.len(), 20);
        for workers in [1, 3, 7] {
            assert!(render_on(workers) == one_band, "{workers} workers");
        }
    }
}
