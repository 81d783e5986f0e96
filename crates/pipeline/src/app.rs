//! Application state and configuration of the stent-enhancement pipeline.

use imaging::couples::{Couple, CplsConfig};
use imaging::enhance::{EnhConfig, EnhState};
use imaging::guidewire::{GwConfig, GwScratch};
use imaging::image::{ImageU16, Roi};
use imaging::markers::{MkxBuffers, MkxConfig};
use imaging::registration::RegConfig;
use imaging::ridge::{RdgBuffers, RdgConfig};
use imaging::roi_est::RoiEstConfig;
use imaging::zoom::{ZoomConfig, ZoomScratch};
use std::sync::{Mutex, PoisonError};
use triplec::scenario::ScenarioScript;

/// Configuration of all pipeline tasks plus the switch thresholds.
#[derive(Debug, Clone)]
pub struct AppConfig {
    pub rdg: RdgConfig,
    pub mkx: MkxConfig,
    pub cpls: CplsConfig,
    pub reg: RegConfig,
    pub roi_est: RoiEstConfig,
    pub gw: GwConfig,
    pub enh: EnhConfig,
    pub zoom: ZoomConfig,
    /// Structure-probe threshold of the "RDG DETECTION" switch: frames
    /// whose block-averaged gradient measure exceeds it run ridge
    /// detection. Calibrated for the synthetic sequences (see tests).
    pub structure_threshold: f64,
    /// Block size of the noise-suppressing probe.
    pub probe_block: usize,
    /// Consecutive registration failures before the tracking reference is
    /// dropped (forces re-acquisition).
    pub max_reg_failures: usize,
    /// Structure-probe multiple above which RDG's fine refinement scales
    /// run (the coarse-to-fine content adaptation).
    pub fine_probe_factor: f64,
    /// Optional scripted scenario storm: while a script covers a frame,
    /// the three flow-graph switches are forced to the scripted state
    /// instead of being derived from the content (used by trace-driven
    /// workloads to thrash the scenario space on a schedule). `None`
    /// (the default) leaves the data-dependent switches untouched.
    pub scenario_script: Option<ScenarioScript>,
}

impl Default for AppConfig {
    fn default() -> Self {
        Self {
            rdg: RdgConfig::default(),
            mkx: MkxConfig::default(),
            cpls: CplsConfig::default(),
            reg: RegConfig::default(),
            roi_est: RoiEstConfig::default(),
            gw: GwConfig::default(),
            enh: EnhConfig::default(),
            zoom: ZoomConfig::default(),
            structure_threshold: 26.0,
            probe_block: 4,
            max_reg_failures: 5,
            fine_probe_factor: 1.25,
            scenario_script: None,
        }
    }
}

impl AppConfig {
    /// Coarse-to-fine adaptation: whether RDG's fine scales run on a frame
    /// whose whole-frame [`structure_probe`] reads `probe`, given whether
    /// they ran on the previous one. Hysteresis (on above the threshold,
    /// off only below 90 % of it, unchanged in between) prevents
    /// flip-flopping on probe noise.
    pub fn fine_scales_active(&self, probe: f64, was_active: bool) -> bool {
        let fine_on = self.structure_threshold * self.fine_probe_factor;
        if probe > fine_on {
            true
        } else if probe < fine_on * 0.9 {
            false
        } else {
            was_active
        }
    }
}

/// Noise-robust structure probe for the RDG switch: block-averages the
/// frame (suppressing quantum noise by the block factor) and measures the
/// mean absolute gradient of the reduced image. Dominant curvilinear
/// structures (contrast-filled vessels) survive the averaging; noise does
/// not.
///
/// Streams the frame once, row by row, in integers: `u32` column sums over
/// a block's rows, `u64` block sums from those, and the absolute
/// differences of two rolling rows of block sums, summed in `u64`. The mean
/// of the block-mean differences is that sum over `area * count`, one
/// division of two integers exact in `f64`: the correctly rounded value.
/// When the block area is a power of two every block mean and every
/// partial sum of the probe's first form (block means and their
/// differences summed in `f64`) is exact, so the two are bit-equal.
pub fn structure_probe(frame: &ImageU16, block: usize) -> f64 {
    assert!(block > 0);
    let (w, h) = frame.dims();
    let (bw, bh) = (w / block, h / block);
    if bw < 2 || bh < 2 {
        return 0.0;
    }
    assert!(
        block <= (u32::MAX / u16::MAX as u32) as usize,
        "a column of {block} u16 pixels can overflow its u32 sum"
    );
    let mut cols = vec![0u32; bw * block];
    let mut above = vec![0u64; bw];
    let mut sums = vec![0u64; bw];
    let mut total = 0u64;
    for by in 0..bh {
        cols.fill(0);
        for y in by * block..(by + 1) * block {
            for (c, &p) in cols.iter_mut().zip(frame.row(y)) {
                *c += p as u32;
            }
        }
        for (s, c) in sums.iter_mut().zip(cols.chunks_exact(block)) {
            *s = c.iter().map(|&v| v as u64).sum();
        }
        // absolute gradient of the row of blocks above, whose lower
        // neighbours have just become known
        if by > 0 {
            total += above
                .iter()
                .zip(&above[1..])
                .zip(&sums)
                .map(|((&v, &right), &below)| right.abs_diff(v) + below.abs_diff(v))
                .sum::<u64>();
        }
        std::mem::swap(&mut above, &mut sums);
    }
    // Both operands are below 2^53 for frames under 2^36 pixels.
    let area = (block * block) as u64;
    let count = 2 * (bw - 1) as u64 * (bh - 1) as u64;
    total as f64 / (area * count) as f64
}

/// Frame geometry, `(width, height)`.
type Geometry = (usize, usize);

/// The frame-sized buffers of an [`AppState`]: what a finished stream
/// leaves for the next stream of its geometry.
struct WarmSet {
    rdg_bufs: RdgBuffers,
    mkx_bufs: MkxBuffers,
    enh_state: EnhState,
    gw_scratch: GwScratch,
    enh_view: Option<ImageU16>,
    zoom_scratch: ZoomScratch,
}

impl WarmSet {
    fn new(width: usize, height: usize) -> Self {
        Self {
            rdg_bufs: RdgBuffers::new(width, height),
            mkx_bufs: MkxBuffers::new(width, height),
            enh_state: EnhState::new(width, height),
            gw_scratch: GwScratch::new(),
            enh_view: None,
            zoom_scratch: ZoomScratch::new(),
        }
    }
}

/// Where a dropped [`AppState`] leaves its buffers: one set and its
/// geometry. A poisoned lock is used as it is: each critical section is a
/// single `Option` take or replace.
type WarmSlot = Mutex<Option<(Geometry, WarmSet)>>;

/// The slot every [`AppState::new`] draws from. It holds the set of the
/// state dropped last, whatever its geometry, so a stream that follows one
/// of its geometry starts warm and the process keeps at most one set.
static WARM: WarmSlot = Mutex::new(None);

/// Takes the set in `slot` if it has `geometry`.
fn draw(slot: &WarmSlot, geometry: Geometry) -> Option<WarmSet> {
    let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if held.as_ref()?.0 != geometry {
        return None;
    }
    held.take().map(|(_, set)| set)
}

/// Leaves `set` in `slot`; the set it replaces is freed after the lock is
/// released.
fn park(slot: &WarmSlot, geometry: Geometry, set: WarmSet) {
    let _replaced = slot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replace((geometry, set));
}

/// Mutable state of the pipeline, carried across frames.
pub struct AppState {
    /// RDG working buffers (frame-sized, reused): one set for the
    /// detection pass and for GW EXT, which reads the response accumulator
    /// that pass leaves behind, at every stripe count and ROI geometry.
    pub rdg_bufs: RdgBuffers,
    /// MKX working buffers.
    pub mkx_bufs: MkxBuffers,
    /// Temporal-integration state of ENH.
    pub enh_state: EnhState,
    /// Guide-wire DP scratch, reused across frames.
    pub gw_scratch: GwScratch,
    /// Reusable ENH readout image (re-created only when the ROI geometry
    /// changes).
    pub enh_view: Option<ImageU16>,
    /// ZOOM interpolation scratch (tap plans + pooled source-row cache).
    pub zoom_scratch: ZoomScratch,
    /// Reference frame for registration (set on couple acquisition).
    pub reference_frame: Option<ImageU16>,
    /// Reference marker couple.
    pub reference_couple: Option<Couple>,
    /// Couple selected in the previous frame (temporal-consistency term).
    pub prev_couple: Option<Couple>,
    /// ROI being tracked (drives the "ROI ESTIMATED" switch).
    pub current_roi: Option<Roi>,
    /// Magnitude of the last registered motion, pixels/frame.
    pub recent_motion: f64,
    /// Consecutive registration failures.
    pub reg_failures: usize,
    /// Whether RDG's fine refinement scales are currently active (the
    /// coarse-to-fine switch, with hysteresis against probe noise).
    pub fine_active: bool,
    /// The slot the buffers return to on drop, and their geometry; `None`
    /// for a state built past the slot.
    home: Option<(&'static WarmSlot, Geometry)>,
}

impl AppState {
    /// Creates pipeline state for `width x height` frames. The buffers are
    /// those of the state dropped last in the process when it had this
    /// geometry, readied on return ([`RdgBuffers::reclaim`],
    /// [`MkxBuffers::reclaim`], [`EnhState::reset`]), or new ones. The two
    /// give the same pixels; a drawn set's pages are already touched, so a
    /// new stream's first frame does not fault them in or clear them. The
    /// tracking fields start empty either way.
    pub fn new(width: usize, height: usize) -> Self {
        Self::drawn_from(Some(&WARM), width, height)
    }

    /// [`AppState::new`] on `slot`, or on new buffers that are freed on
    /// drop when `slot` is `None`.
    fn drawn_from(slot: Option<&'static WarmSlot>, width: usize, height: usize) -> Self {
        let geometry = (width, height);
        let set = slot
            .and_then(|s| draw(s, geometry))
            .unwrap_or_else(|| WarmSet::new(width, height));
        Self {
            rdg_bufs: set.rdg_bufs,
            mkx_bufs: set.mkx_bufs,
            enh_state: set.enh_state,
            gw_scratch: set.gw_scratch,
            enh_view: set.enh_view,
            zoom_scratch: set.zoom_scratch,
            reference_frame: None,
            reference_couple: None,
            prev_couple: None,
            current_roi: None,
            recent_motion: 0.0,
            reg_failures: 0,
            fine_active: false,
            home: slot.map(|s| (s, geometry)),
        }
    }

    /// Drops the tracking reference (couple lost / too many failures).
    pub fn lose_tracking(&mut self) {
        self.reference_frame = None;
        self.reference_couple = None;
        self.current_roi = None;
        self.reg_failures = 0;
        self.enh_state.reset();
    }
}

impl Drop for AppState {
    /// Readies the buffers for the next stream and leaves them in the slot
    /// they were drawn from, so a draw costs a new stream nothing but the
    /// lock. A state dropped while its thread unwinds may hold a
    /// half-updated cache, so its buffers are freed instead.
    fn drop(&mut self) {
        let Some((slot, geometry)) = self.home.filter(|_| !std::thread::panicking()) else {
            return;
        };
        let mut set = WarmSet {
            rdg_bufs: std::mem::replace(&mut self.rdg_bufs, RdgBuffers::new(0, 0)),
            mkx_bufs: std::mem::replace(&mut self.mkx_bufs, MkxBuffers::new(0, 0)),
            enh_state: std::mem::replace(&mut self.enh_state, EnhState::new(0, 0)),
            gw_scratch: std::mem::take(&mut self.gw_scratch),
            enh_view: self.enh_view.take(),
            zoom_scratch: std::mem::take(&mut self.zoom_scratch),
        };
        set.rdg_bufs.reclaim();
        set.mkx_bufs.reclaim();
        set.enh_state.reset();
        park(slot, geometry, set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::image::Image;

    /// The probe as it was first written: the block-averaged image in
    /// full, every pixel through `get`.
    fn structure_probe_reference(frame: &ImageU16, block: usize) -> f64 {
        assert!(block > 0);
        let (w, h) = frame.dims();
        let bw = w / block;
        let bh = h / block;
        if bw < 2 || bh < 2 {
            return 0.0;
        }
        // block-average
        let mut small = vec![0.0f64; bw * bh];
        for by in 0..bh {
            for bx in 0..bw {
                let mut sum = 0.0f64;
                for y in 0..block {
                    for x in 0..block {
                        sum += frame.get(bx * block + x, by * block + y) as f64;
                    }
                }
                small[by * bw + bx] = sum / (block * block) as f64;
            }
        }
        // mean absolute gradient
        let mut total = 0.0f64;
        let mut count = 0usize;
        for y in 0..bh - 1 {
            for x in 0..bw - 1 {
                let v = small[y * bw + x];
                total += (small[y * bw + x + 1] - v).abs() + (small[(y + 1) * bw + x] - v).abs();
                count += 2;
            }
        }
        total / count as f64
    }

    /// The probe as an exact rational: block sums pixel by pixel in
    /// `u128`, the sum of their absolute differences over `area * count`,
    /// rounded once to the nearest `f64`.
    fn structure_probe_exact(frame: &ImageU16, block: usize) -> f64 {
        let (bw, bh) = (frame.width() / block, frame.height() / block);
        if bw < 2 || bh < 2 {
            return 0.0;
        }
        let sum = |bx: usize, by: usize| -> u128 {
            (0..block * block)
                .map(|i| frame.get(bx * block + i % block, by * block + i / block) as u128)
                .sum()
        };
        let mut num = 0u128;
        for by in 0..bh - 1 {
            for bx in 0..bw - 1 {
                let v = sum(bx, by);
                num += sum(bx + 1, by).abs_diff(v) + sum(bx, by + 1).abs_diff(v);
            }
        }
        nearest_f64(num, (block * block * 2 * (bw - 1) * (bh - 1)) as u128)
    }

    /// `num / den` rounded to the nearest `f64` (ties to even) by long
    /// division in `u128`; `den` below 2^73.
    fn nearest_f64(num: u128, den: u128) -> f64 {
        if num == 0 {
            return 0.0;
        }
        let bits = |v: u128| 128 - v.leading_zeros() as i32;
        // a quotient of 55 or 56 bits: 53 to keep, one to round on, the
        // rest sticky
        let shift = 55 - bits(num) + bits(den);
        assert!(shift >= 0, "quotient above 2^55");
        let scaled = num << shift;
        let (mut q, mut sticky) = (scaled / den, !scaled.is_multiple_of(den));
        let mut exp = -shift;
        while q >= 1 << 54 {
            sticky |= q & 1 == 1;
            q >>= 1;
            exp += 1;
        }
        let half = q & 1 == 1;
        q >>= 1;
        if half && (sticky || q & 1 == 1) {
            q += 1;
        }
        q as f64 * 2f64.powi(exp + 1)
    }

    #[test]
    fn streamed_probe_is_bit_equal_to_the_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // sizes that are and are not multiples of the block; the last one
        // holds the brightest pixels
        for (w, h, top) in [
            (64, 48, 4000),
            (61, 47, 4000),
            (33, 130, 4000),
            (130, 9, u16::MAX),
            (70, 66, u16::MAX),
        ] {
            let frame = Image::from_fn(w, h, |x, y| {
                let d = (x as f32 - y as f32).abs() / 2.0;
                let v = top as f32 * (0.5 - 0.3 * (-d * d / 8.0).exp());
                v as u16 + rng.gen_range(0..top / 4)
            });
            // power-of-two areas: the first form's f64 sums are exact
            for block in [1, 2, 4, 8] {
                assert_eq!(
                    structure_probe(&frame, block).to_bits(),
                    structure_probe_reference(&frame, block).to_bits(),
                    "{w}x{h} block {block}"
                );
            }
            // any area: the correctly rounded rational
            for block in [1, 2, 3, 4, 5, 8] {
                assert_eq!(
                    structure_probe(&frame, block).to_bits(),
                    structure_probe_exact(&frame, block).to_bits(),
                    "{w}x{h} block {block}"
                );
            }
        }
        // full-range noise, where rounding the block means first (or the
        // sum before dividing by the count) misses in about one case in seven
        for i in 0..50 {
            let (w, h) = (20 + i % 7, 17 + i % 5);
            let frame = Image::from_fn(w, h, |_, _| rng.gen::<u32>() as u16);
            for block in [3, 5, 6, 7] {
                assert_eq!(
                    structure_probe(&frame, block).to_bits(),
                    structure_probe_exact(&frame, block).to_bits(),
                    "noise {w}x{h} block {block}"
                );
            }
        }
    }

    #[test]
    fn blocks_beyond_u32_sums_stay_exact() {
        // 257² pixels of 65535 overflow a u32 block sum
        let frame: ImageU16 = Image::from_fn(3 * 300 + 5, 2 * 300 + 3, |x, y| {
            if (x / 257 + y / 257) % 2 == 0 {
                u16::MAX
            } else {
                (x * 7 + y) as u16
            }
        });
        for block in [256, 257, 300] {
            let p = structure_probe(&frame, block);
            assert_eq!(
                p.to_bits(),
                structure_probe_exact(&frame, block).to_bits(),
                "block {block}"
            );
            assert!(p > 10_000.0, "block {block}: {p}");
        }
    }

    #[test]
    fn probe_of_a_rendered_frame_is_pinned() {
        // one default 1024² frame, and the probe's bits before it was
        // computed in integers
        let sequence = xray::SequenceGenerator::new(xray::SequenceConfig {
            width: 1024,
            height: 1024,
            frames: 1,
            seed: 1,
            ..Default::default()
        });
        let frame = sequence.map(|f| f.image).next().expect("one frame");
        assert_eq!(structure_probe(&frame, 4).to_bits(), 0x4033_c710_fae4_ceb9);
    }

    #[test]
    fn probe_separates_structured_from_flat() {
        let flat: ImageU16 = Image::filled(128, 128, 2000);
        let structured = Image::from_fn(128, 128, |x, y| {
            let d = (x as f32 - y as f32).abs() / 2.0;
            (2000.0 - 600.0 * (-d * d / 8.0).exp()) as u16
        });
        let pf = structure_probe(&flat, 4);
        let ps = structure_probe(&structured, 4);
        assert!(ps > 5.0 * (pf + 1.0), "structured {ps} flat {pf}");
    }

    #[test]
    fn probe_suppresses_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let noisy = Image::from_fn(128, 128, |_, _| {
            (2000.0 + rng.gen_range(-150.0..150.0)) as u16
        });
        let raw_grad = structure_probe(&noisy, 1);
        let blocked = structure_probe(&noisy, 4);
        assert!(blocked < raw_grad / 2.0, "blocked {blocked} raw {raw_grad}");
    }

    #[test]
    fn fine_scales_switch_with_hysteresis() {
        let cfg = AppConfig::default();
        let on = cfg.structure_threshold * cfg.fine_probe_factor;
        assert!(cfg.fine_scales_active(on + 0.1, false));
        assert!(!cfg.fine_scales_active(on * 0.9 - 0.1, true));
        // inside the band the previous decision holds
        for held in [false, true] {
            assert_eq!(cfg.fine_scales_active(on * 0.95, held), held);
        }
    }

    #[test]
    fn lose_tracking_clears_state() {
        let mut s = AppState::new(32, 32);
        s.current_roi = Some(Roi::new(0, 0, 8, 8));
        s.reg_failures = 3;
        s.recent_motion = 5.0;
        s.lose_tracking();
        assert!(s.current_roi.is_none());
        assert!(s.reference_couple.is_none());
        assert_eq!(s.reg_failures, 0);
        assert_eq!(s.enh_state.frames_integrated(), 0);
    }

    /// A slot of the tests' own, so no other test draws from it.
    fn own_slot() -> &'static WarmSlot {
        Box::leak(Box::new(Mutex::new(None)))
    }

    #[test]
    fn slot_keeps_the_last_set_and_serves_only_its_geometry() {
        let slot = own_slot();
        drop(AppState::drawn_from(Some(slot), 16, 16));
        // a state of another geometry leaves the 16² set in the slot ...
        let other = AppState::drawn_from(Some(slot), 8, 8);
        let held = |s: &WarmSlot| {
            let set = s.lock().unwrap_or_else(PoisonError::into_inner);
            set.as_ref().map(|(g, _)| *g)
        };
        assert_eq!(held(slot), Some((16, 16)));
        // ... and its drop replaces it
        drop(other);
        assert_eq!(held(slot), Some((8, 8)));
        assert!(draw(slot, (16, 16)).is_none());
        assert!(draw(slot, (8, 16)).is_none());
        assert!(draw(slot, (8, 8)).is_some());
        assert!(draw(slot, (8, 8)).is_none(), "a set was drawn twice");
    }

    #[test]
    fn poisoned_slot_still_serves() {
        let slot = own_slot();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = slot.lock();
                panic!("poisoning the slot");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(slot.is_poisoned());
        // a draw from the empty slot allocates; the drop returns the set
        let state = AppState::drawn_from(Some(slot), 16, 16);
        assert_eq!(state.mkx_bufs.byte_size(), 3 * 16 * 16 * 4);
        drop(state);
        assert!(draw(slot, (16, 16)).is_some(), "the set was not returned");
    }

    /// A drawn set gives what a new one gives. Clip A dirties every buffer
    /// (four stripes, fine scales, an integrating ENH, and a last frame
    /// that leaves RDG's accumulator for a fold-in), a 128² state is made
    /// while the set waits in the slot, then clip B runs on the drawn set
    /// and on one built past the slot.
    #[test]
    fn drawn_state_matches_a_new_one() -> Result<(), imaging::parallel::PoolError> {
        use crate::executor::{process_frame_on, ExecutionPolicy};
        use imaging::parallel::{StripeFault, StripePool};
        use imaging::ridge::ridge_response_banded;
        use triplec::scenario::ScenarioScript;
        use xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

        let clip = |seed| {
            SequenceGenerator::new(SequenceConfig {
                width: 160,
                height: 160,
                frames: 10,
                seed,
                noise: NoiseConfig {
                    quantum_scale: 0.3,
                    electronic_std: 2.0,
                },
                ..Default::default()
            })
        };
        let cfg = AppConfig {
            fine_probe_factor: 0.0,
            ..Default::default()
        };
        let stripes = |n| ExecutionPolicy { stripes: n };
        let workers = StripePool::new(0);
        let slot = own_slot();

        let mut a = AppState::drawn_from(Some(slot), 160, 160);
        let frames: Vec<_> = clip(71).collect();
        let (tracked, last) = frames.split_at(frames.len() - 1);
        for f in tracked {
            process_frame_on(&workers, f.index, &f.image, &mut a, &cfg, &stripes(4));
        }
        // RDG over the tracked ROI and no GW EXT after it
        let roi = a.current_roi.expect("clip A tracks");
        let rdg_only = AppConfig {
            scenario_script: Some(ScenarioScript::hold(1, 100)),
            ..cfg.clone()
        };
        let f = &last[0];
        process_frame_on(&workers, f.index, &f.image, &mut a, &rdg_only, &stripes(4));
        assert!(a.enh_state.frames_integrated() > 0);
        drop(a);
        let other = AppState::drawn_from(Some(slot), 128, 128);

        let mut drawn = AppState::drawn_from(Some(slot), 160, 160);
        drop(other);
        let mut fresh = AppState::drawn_from(None, 160, 160);
        assert!(
            drawn.rdg_bufs.byte_size() > fresh.rdg_bufs.byte_size(),
            "vacuous: clip A's set was not drawn"
        );
        let frames: Vec<_> = clip(72).collect();
        // neither set has a last call for GW EXT to fold into
        for state in [&mut drawn, &mut fresh] {
            let bufs = &mut state.rdg_bufs;
            ridge_response_banded(
                &workers,
                &frames[0].image,
                roi,
                roi,
                &cfg.rdg,
                true,
                1,
                StripeFault::default(),
                bufs,
            )?;
        }
        // the response is defined inside the window
        let window = |s: &AppState| {
            let acc = s.rdg_bufs.response();
            (roi.y..roi.bottom())
                .flat_map(|y| acc.row(y)[roi.x..roi.right()].to_vec())
                .collect::<Vec<f32>>()
        };
        assert!(
            window(&drawn) == window(&fresh),
            "the drawn set folded into the last stream's response"
        );

        let mut displays = 0;
        for f in &frames {
            let d = process_frame_on(&workers, f.index, &f.image, &mut drawn, &cfg, &stripes(2));
            let n = process_frame_on(&workers, f.index, &f.image, &mut fresh, &cfg, &stripes(2));
            assert_eq!(d.scenario, n.scenario, "frame {}", f.index);
            assert!(d.display == n.display, "display of frame {}", f.index);
            assert_eq!(d.roi, n.roi, "frame {}", f.index);
            let bytes = |s: &AppState| (s.rdg_bufs.byte_size(), s.mkx_bufs.byte_size());
            assert_eq!(bytes(&drawn), bytes(&fresh), "frame {}", f.index);
            displays += usize::from(d.display.is_some());
        }
        assert!(displays >= 3, "only {displays} displays to compare");
        Ok(())
    }

    #[test]
    fn probe_handles_tiny_frames() {
        let tiny: ImageU16 = Image::filled(4, 4, 100);
        assert_eq!(structure_probe(&tiny, 4), 0.0);
    }
}
