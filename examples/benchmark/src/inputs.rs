//! Set-up: workload definitions, frame rendering, the serial reference
//! digests every returned display is compared against, and model training.
//!
//! Everything the program under test receives is made here from `--seed`:
//! the rendered frames and a model trained on the serial reference run.

use crate::host;
use imaging::image::ImageU16;
use pipeline::app::{AppConfig, AppState};
use pipeline::executor::{process_frame, ExecutionPolicy};
use pipeline::runner::ProfileRun;
use std::time::Instant;
use triplec::scenario::Scenario;
use triplec::triple::{TripleC, TripleCConfig};
use xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

pub const DEFAULT_SEED: u64 = 1;
/// Full-frame share the mixed workloads must show, so that p95 sits inside
/// the heavy class and not on its edge.
const HEAVY_SHARE: std::ops::RangeInclusive<f64> = 0.08..=0.15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Steady,
    Cold,
    Fanin,
    Paced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Cold,
        Workload::Fanin,
        Workload::Paced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady_1024",
            Workload::Cold => "cold_clips_1024",
            Workload::Fanin => "fanin_64x128",
            Workload::Paced => "paced_1x1024_30hz",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size the benchmark runs at, in one place. `full` is what
/// `BENCHMARK.json` measures; `smoke` is the quick self-check.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
    /// Frame edge of the three engine-driven workloads.
    pub big: usize,
    /// Frame edge of fan-in and of the 128² ladder rungs.
    pub small: usize,
    /// Rendered clips of the engine-driven workloads, each of another seed:
    /// frame cost follows the vessel tree under the device by ±10 %, and a
    /// pass over several trees averages that out.
    pub clips: usize,
    pub clip_frames: usize,
    /// Untimed steps per clip of a steady pass, until tracking locks.
    pub steady_warm_in: usize,
    /// Timed steps per clip of a steady pass.
    pub steady_timed: usize,
    /// Clip openings per cold pass (cycling over the rendered clips).
    pub cold_opens: usize,
    pub fanin_streams: usize,
    pub fanin_frames: usize,
    /// Clip openings per paced pass.
    pub paced_opens: usize,
    pub paced_hz: f64,
    /// Whole set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Measured passes: `None` runs whole passes until `--seconds` is up.
    pub fixed_passes: Option<usize>,
    /// Rounds of the bare / observed / traced replays of the `--trace` run.
    pub replay_rounds: usize,
    /// Streams of a many-stream workload the engine-level rungs replay.
    pub replay_streams: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            smoke: false,
            big: 1024,
            small: 128,
            clips: 4,
            clip_frames: 8,
            steady_warm_in: 8,
            steady_timed: 38,
            cold_opens: 12,
            fanin_streams: 64,
            fanin_frames: 20,
            paced_opens: 6,
            paced_hz: 30.0,
            setup_reps: 2,
            fixed_passes: None,
            replay_rounds: 2,
            replay_streams: 8,
        }
    }

    pub fn smoke() -> Self {
        Self {
            smoke: true,
            big: 128,
            clips: 2,
            steady_timed: 12,
            cold_opens: 4,
            fanin_streams: 6,
            fanin_frames: 10,
            paced_opens: 2,
            // no 128² frame comes near either period; the faster clock only
            // shortens the check
            paced_hz: 60.0,
            setup_reps: 1,
            fixed_passes: Some(2),
            replay_rounds: 1,
            replay_streams: 2,
            ..Self::full()
        }
    }

    /// Edge of the frames this workload feeds.
    pub fn edge(&self, w: Workload) -> usize {
        if w == Workload::Fanin {
            self.small
        } else {
            self.big
        }
    }
}

/// The application configuration every workload runs.
///
/// Two content-dependent switches are pinned so that the executed scenario
/// sequence is the same for every seed: with the default thresholds the
/// structure probe of default content straddles the RDG switch (17–26
/// against 26), so one seed runs ridge detection on every frame and the
/// next on none, and frame cost differs by 60 %. RDG is always selected
/// and its fine scales never are. The two data-dependent switches that
/// follow from tracking (ROI ESTIMATED, REG. SUCCESSFUL) stay live.
pub fn app_config() -> AppConfig {
    AppConfig {
        structure_threshold: 1.0,
        fine_probe_factor: 1e6,
        ..Default::default()
    }
}

/// `0,1,…,n-1,n-2,…,1,0,1,…`: replays a clip back and forth so motion
/// stays continuous however many steps are fed.
pub fn ping_pong(clip: usize, steps: usize) -> Vec<usize> {
    let period = (2 * clip).saturating_sub(2).max(1);
    (0..steps)
        .map(|k| {
            let m = k % period;
            if m < clip {
                m
            } else {
                period - m
            }
        })
        .collect()
}

/// One stream as fed to a fresh engine: a rendered clip and the order its
/// frames are stepped in.
pub struct StreamPlan {
    pub cfg: SequenceConfig,
    pub order: Vec<usize>,
}

pub fn stream_plans(w: Workload, scale: &Scale, seed: u64) -> Vec<StreamPlan> {
    let edge = scale.edge(w);
    // steady goes back and forth over each clip; the others play their
    // streams once (see `paced_pass` for why paced's heavy frames come from
    // run boundaries)
    let (streams, frames, steps) = match w {
        Workload::Steady => (
            scale.clips,
            scale.clip_frames,
            scale.steady_warm_in + scale.steady_timed,
        ),
        Workload::Cold | Workload::Paced => (scale.clips, scale.clip_frames, scale.clip_frames),
        Workload::Fanin => (scale.fanin_streams, scale.fanin_frames, scale.fanin_frames),
    };
    (0..streams)
        .map(|stream| StreamPlan {
            cfg: SequenceConfig {
                width: edge,
                height: edge,
                frames,
                seed: seed.wrapping_mul(1000).wrapping_add(stream as u64),
                // 128² frames carry the noise level the repo's own 128²
                // suites use; at default noise the markers do not stand out
                // at that size
                noise: if edge <= 256 {
                    NoiseConfig {
                        quantum_scale: 0.3,
                        electronic_std: 2.0,
                    }
                } else {
                    NoiseConfig::default()
                },
                ..Default::default()
            },
            order: ping_pong(frames, steps),
        })
        .collect()
}

/// FNV-1a 64 over the display's dimensions and little-endian pixel bytes.
pub fn digest(img: &ImageU16) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    };
    for d in [img.width() as u32, img.height() as u32] {
        d.to_le_bytes().into_iter().for_each(&mut eat);
    }
    for &px in img.as_slice() {
        px.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h
}

pub fn digest_opt(img: &Option<ImageU16>) -> Option<u64> {
    img.as_ref().map(digest)
}

/// A rendered stream with its serial reference.
pub struct StreamInput {
    pub cfg: SequenceConfig,
    pub frames: Vec<ImageU16>,
    pub order: Vec<usize>,
    /// Reference display digest per step (`None`: the step shows nothing).
    pub digests: Vec<Option<u64>>,
    /// Reference scenario id per step.
    pub scenarios: Vec<u8>,
}

/// Whether a frame of this scenario ran at full-frame granularity.
pub fn is_full(scenario: u8) -> bool {
    !Scenario::from_id(scenario).roi_estimated
}

fn fullframe_steps(scenarios: &[u8]) -> usize {
    scenarios.iter().filter(|&&id| is_full(id)).count()
}

pub struct Inputs {
    pub workload: Workload,
    pub app: AppConfig,
    pub streams: Vec<StreamInput>,
    pub model: TripleC,
    pub render_ms_per_frame: f64,
    pub train_ms: f64,
}

impl Inputs {
    pub fn steps(&self) -> usize {
        self.streams.iter().map(|s| s.order.len()).sum()
    }

    pub fn fullframe_share(&self) -> f64 {
        let full: usize = self
            .streams
            .iter()
            .map(|s| fullframe_steps(&s.scenarios))
            .sum();
        full as f64 / self.steps().max(1) as f64
    }

    /// Holds the reference to the workload's structural assertions and,
    /// for the default seed at full scale, to the checked-in golden (or
    /// rewrites the golden). Returns the number of golden lines that differ.
    pub fn check(&self, seed: u64, scale: &Scale, update_golden: bool) -> Result<usize, String> {
        let w = self.workload;
        let share = self.fullframe_share();
        match w {
            Workload::Cold | Workload::Paced if !HEAVY_SHARE.contains(&share) => {
                return Err(format!(
                    "{}: full-frame share {share:.3} outside {HEAVY_SHARE:?} on seed {seed}",
                    w.name()
                ));
            }
            Workload::Steady => {
                let late: usize = self
                    .streams
                    .iter()
                    .map(|s| fullframe_steps(&s.scenarios[scale.steady_warm_in..]))
                    .sum();
                if late > 0 {
                    return Err(format!(
                        "{}: {late} timed frames ran full-frame on seed {seed}",
                        w.name()
                    ));
                }
            }
            _ => {}
        }
        if seed != DEFAULT_SEED || scale.smoke {
            return Ok(0);
        }
        let text = golden_text(self);
        if update_golden {
            let path = format!("{}/golden/{}.digest", env!("CARGO_MANIFEST_DIR"), w.name());
            std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
            return Ok(0);
        }
        let golden = golden_of(w);
        let differing = text
            .lines()
            .zip(golden.lines())
            .filter(|(a, b)| a != b)
            .count()
            + text.lines().count().abs_diff(golden.lines().count());
        if differing > 0 {
            eprintln!(
                "{0}: {differing} reference digests differ from golden/{0}.digest",
                w.name()
            );
        }
        Ok(differing)
    }
}

/// Renders one stream and runs its fed order through serial
/// `process_frame`, keeping display digests and the timing profile.
fn build_stream(plan: StreamPlan, app: &AppConfig) -> (StreamInput, ProfileRun, Vec<f64>) {
    let mut render_ms = Vec::with_capacity(plan.cfg.frames);
    let mut frames = Vec::with_capacity(plan.cfg.frames);
    let mut gen = SequenceGenerator::new(plan.cfg.clone());
    loop {
        let t0 = Instant::now();
        let Some(frame) = gen.next() else { break };
        render_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        frames.push(frame.image);
    }
    let mut profile = ProfileRun::new();
    let mut state = AppState::new(plan.cfg.width, plan.cfg.height);
    let policy = ExecutionPolicy::default();
    let mut digests = Vec::with_capacity(plan.order.len());
    for (step, &pos) in plan.order.iter().enumerate() {
        let out = process_frame(step, &frames[pos], &mut state, app, &policy);
        digests.push(digest_opt(&out.display));
        profile.absorb(out);
    }
    let input = StreamInput {
        cfg: plan.cfg,
        frames,
        order: plan.order,
        digests,
        scenarios: profile.scenarios.clone(),
    };
    (input, profile, render_ms)
}

/// One whole set-up except the warm-up pass: render, serial reference and
/// training.
pub fn build(w: Workload, scale: &Scale, seed: u64) -> Inputs {
    let app = app_config();
    let plans = stream_plans(w, scale, seed);
    // Only fan-in's many small streams are spread over the host's cores. A
    // second thread allocates from an allocator arena of its own, and with
    // 2 MB frames in it peak RSS differed by 7 % between identical runs.
    let threads = if w == Workload::Fanin {
        host::nproc().min(plans.len()).max(1)
    } else {
        1
    };
    let mut slots: Vec<Option<(StreamInput, ProfileRun, Vec<f64>)>> =
        plans.iter().map(|_| None).collect();
    // thread t takes streams t, t+threads, …
    let mut buckets: Vec<Vec<(usize, StreamPlan)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, plan) in plans.into_iter().enumerate() {
        buckets[i % threads].push((i, plan));
    }
    let build_bucket = |bucket: Vec<(usize, StreamPlan)>| {
        bucket
            .into_iter()
            .map(|(i, plan)| (i, build_stream(plan, &app)))
            .collect::<Vec<_>>()
    };
    // the first bucket is built on this thread
    let first = buckets.remove(0);
    let built: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| scope.spawn(|| build_bucket(bucket)))
            .collect();
        let mut built = build_bucket(first);
        for h in handles {
            built.extend(h.join().expect("set-up thread panicked"));
        }
        built
    });
    for (i, stream) in built {
        slots[i] = Some(stream);
    }

    // merge the profiles in stream order, so the training series do not
    // depend on which thread finished first
    let mut profile = ProfileRun::new();
    let mut streams = Vec::with_capacity(slots.len());
    let mut render_ms = Vec::new();
    for slot in slots {
        let (input, sub, ms) = slot.expect("every stream built");
        for (task, samples) in sub.samples {
            profile.samples.entry(task).or_default().extend(samples);
        }
        profile.scenarios.extend(sub.scenarios);
        streams.push(input);
        render_ms.extend(ms);
    }
    let edge = scale.edge(w);
    let t0 = Instant::now();
    let model = TripleC::train(
        &profile.task_series(),
        &profile.scenarios,
        TripleCConfig {
            geometry: triplec::FrameGeometry {
                width: edge,
                height: edge,
            },
            ..Default::default()
        },
    );
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    Inputs {
        workload: w,
        app,
        streams,
        model,
        render_ms_per_frame: crate::stats::mean(&render_ms),
        train_ms,
    }
}

/// The golden file body for these inputs: one `stream step digest` line
/// per fed step.
fn golden_text(inputs: &Inputs) -> String {
    let mut out = String::new();
    for (s, stream) in inputs.streams.iter().enumerate() {
        for (step, d) in stream.digests.iter().enumerate() {
            match d {
                Some(d) => out.push_str(&format!("{s} {step} {d:016x}\n")),
                None => out.push_str(&format!("{s} {step} -\n")),
            }
        }
    }
    out
}

/// The checked-in golden of the default seed at full scale.
fn golden_of(w: Workload) -> &'static str {
    match w {
        Workload::Steady => include_str!("../golden/steady_1024.digest"),
        Workload::Cold => include_str!("../golden/cold_clips_1024.digest"),
        Workload::Fanin => include_str!("../golden/fanin_64x128.digest"),
        Workload::Paced => include_str!("../golden/paced_1x1024_30hz.digest"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_turns_without_repeating_the_ends() {
        assert_eq!(ping_pong(4, 9), vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(ping_pong(1, 3), vec![0, 0, 0]);
    }

    #[test]
    fn digest_separates_shape_and_content() {
        let a = ImageU16::new(4, 2);
        let b = ImageU16::new(2, 4);
        let mut c = ImageU16::new(4, 2);
        c.set(1, 1, 7);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_eq!(digest(&a), digest(&ImageU16::new(4, 2)));
    }
}
