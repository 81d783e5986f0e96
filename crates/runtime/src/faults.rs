//! Deterministic fault injection for soak and property testing.
//!
//! A [`FaultPlan`] is a pure function from `(seed, stream, frame)` to the
//! faults armed for that frame: stripe-worker panics, transient
//! pool-channel errors, inflated stage times, dropped input frames, and
//! forced model-snapshot corruption. Draws are hash-based (splitmix64)
//! rather than sequential-RNG based, so the plan is *order independent*:
//! concurrent streams, retried frames, and replayed runs all see exactly
//! the same faults for the same coordinates. Replaying a seed therefore
//! reproduces a faulted session event-for-event.
//!
//! A stream takes its plan as a value on
//! [`StreamSpec`](crate::session::StreamSpec); without one the engine
//! skips its fault sections, so the harness is zero-cost when disabled.

use pipeline::executor::FrameFaults;
use platform::bus::StreamId;

/// splitmix64: a tiny, high-quality bijective mixer (public domain
/// constants from Steele et al.); one round per draw keeps plan lookups
/// branch-free and allocation-free.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Raw 64-bit hash for `(seed, stream, frame, salt)` (e.g. to pick the
/// byte a corrupted snapshot garbles).
#[inline]
pub fn fault_hash(seed: u64, stream: StreamId, frame: usize, salt: u64) -> u64 {
    let mut h = splitmix64(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
    h = splitmix64(h ^ (stream as u64).wrapping_mul(0xe703_7ed1_a0b4_28db));
    splitmix64(h ^ (frame as u64).wrapping_mul(0x8ebc_6af0_9c88_c6e3))
}

/// One deterministic draw for `(seed, stream, frame, salt)` in `[0, 1)`:
/// the top 53 bits of [`fault_hash`], an unbiased `f64`.
#[inline]
fn draw(seed: u64, stream: StreamId, frame: usize, salt: u64) -> f64 {
    (fault_hash(seed, stream, frame, salt) >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_PANIC: u64 = 1;
const SALT_CHANNEL: u64 = 2;
const SALT_DELAY: u64 = 3;
const SALT_DROP: u64 = 4;
const SALT_CORRUPT: u64 = 5;

/// Per-fault-kind injection rates (probability per frame, in `[0, 1]`).
/// The default arms nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlanConfig {
    /// Probability a frame's striped RDG dispatch gets one panicking job.
    pub panic_rate: f64,
    /// Probability a frame's first dispatch fails with a transient
    /// pool-channel error.
    pub channel_rate: f64,
    /// Probability a frame's stage times are inflated by `delay_ms`.
    pub delay_rate: f64,
    /// The injected inflation, milliseconds.
    pub delay_ms: f64,
    /// Probability a frame is dropped at the session input (never
    /// planned or executed; the stream's output for it is suppressed).
    pub drop_rate: f64,
    /// Probability a completed frame's model-snapshot checkpoint is
    /// corrupted before restore.
    pub corrupt_rate: f64,
}

/// A seeded, order-independent fault schedule over all streams and frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultPlanConfig,
}

impl FaultPlan {
    /// A plan drawing from `seed` at the given rates.
    pub fn new(seed: u64, cfg: FaultPlanConfig) -> Self {
        Self { seed, cfg }
    }

    /// The plan's seed (for replay recipes).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Executor-level faults for this frame (pool panics, channel errors,
    /// stage-time inflation).
    pub(crate) fn frame_faults(&self, stream: StreamId, frame: usize) -> FrameFaults {
        let mut f = FrameFaults::default();
        if self.cfg.panic_rate > 0.0
            && draw(self.seed, stream, frame, SALT_PANIC) < self.cfg.panic_rate
        {
            f.rdg_panic_jobs = 1;
        }
        if self.cfg.channel_rate > 0.0
            && draw(self.seed, stream, frame, SALT_CHANNEL) < self.cfg.channel_rate
        {
            f.rdg_channel_errors = 1;
        }
        if self.cfg.delay_rate > 0.0
            && self.cfg.delay_ms > 0.0
            && draw(self.seed, stream, frame, SALT_DELAY) < self.cfg.delay_rate
        {
            f.stage_delay_ms = self.cfg.delay_ms;
        }
        f
    }

    /// Whether the frame is dropped at the session input.
    pub(crate) fn drops_frame(&self, stream: StreamId, frame: usize) -> bool {
        self.cfg.drop_rate > 0.0 && draw(self.seed, stream, frame, SALT_DROP) < self.cfg.drop_rate
    }

    /// Whether the frame's model-snapshot checkpoint is corrupted.
    pub(crate) fn corrupts_snapshot(&self, stream: StreamId, frame: usize) -> bool {
        self.cfg.corrupt_rate > 0.0
            && draw(self.seed, stream, frame, SALT_CORRUPT) < self.cfg.corrupt_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_on(seed: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            FaultPlanConfig {
                panic_rate: 0.3,
                channel_rate: 0.3,
                delay_rate: 0.3,
                delay_ms: 5.0,
                drop_rate: 0.3,
                corrupt_rate: 0.3,
            },
        )
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let plan = all_on(42);
        // evaluate coordinates in two different orders: same answers
        let fwd: Vec<FrameFaults> = (0..64).map(|f| plan.frame_faults(1, f)).collect();
        let rev: Vec<FrameFaults> = (0..64).rev().map(|f| plan.frame_faults(1, f)).collect();
        let rev_fixed: Vec<FrameFaults> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fixed);
        // and a second plan with the same seed agrees exactly
        let again = all_on(42);
        for f in 0..64 {
            assert_eq!(plan.frame_faults(3, f), again.frame_faults(3, f));
            assert_eq!(plan.drops_frame(3, f), again.drops_frame(3, f));
            assert_eq!(plan.corrupts_snapshot(3, f), again.corrupts_snapshot(3, f));
        }
    }

    #[test]
    fn different_seeds_and_streams_decorrelate() {
        let a = all_on(1);
        let b = all_on(2);
        let mut differs = 0;
        for f in 0..256 {
            if a.frame_faults(0, f) != b.frame_faults(0, f) {
                differs += 1;
            }
            if a.frame_faults(0, f) != a.frame_faults(1, f) {
                differs += 1;
            }
        }
        assert!(differs > 50, "only {differs}/512 draws differ");
    }

    #[test]
    fn rates_are_respected_approximately() {
        let plan = FaultPlan::new(
            7,
            FaultPlanConfig {
                panic_rate: 0.25,
                ..Default::default()
            },
        );
        let n = 4000;
        let hits = (0..n)
            .filter(|&f| plan.frame_faults(0, f).rdg_panic_jobs > 0)
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed rate {rate}");
        // zero-rate kinds never fire
        assert!((0..n).all(|f| !plan.drops_frame(0, f)));
        assert!((0..n).all(|f| !plan.corrupts_snapshot(0, f)));
    }

    #[test]
    fn zero_config_plan_arms_nothing() {
        let plan = FaultPlan::new(9, FaultPlanConfig::default());
        for f in 0..128 {
            assert_eq!(plan.frame_faults(0, f), FrameFaults::default());
            assert!(!plan.drops_frame(0, f));
            assert!(!plan.corrupts_snapshot(0, f));
        }
    }

    #[test]
    fn fault_hash_is_stable() {
        assert_eq!(fault_hash(1, 2, 3, 4), fault_hash(1, 2, 3, 4));
        assert_ne!(fault_hash(1, 2, 3, 4), fault_hash(1, 2, 3, 5));
    }
}
