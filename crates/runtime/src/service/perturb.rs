//! Schedule-perturbation points.
//!
//! The tier's synchronisation points call [`perturb`] with their [`Site`].
//! In every build but this crate's own unit tests that is an empty inline
//! function. Under `cfg(test)` the stress test (`service::stress`) arms a
//! seed, and each call then yields or sleeps briefly as a hash of
//! `(seed, site, how often the site was reached)` says — drawn like
//! [`FaultPlan`](crate::faults::FaultPlan)'s faults, so a seed names one
//! family of interleavings. ThreadSanitizer is unusable on this toolchain
//! (ROADMAP, toolchain facts); this is the schedule check we can have.

/// A synchronisation point of the service tier.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Site {
    /// `FrameQueue::push`, before the queue lock.
    QueuePush,
    /// `FrameQueue::{pop, try_pop}`, before the queue lock.
    QueuePop,
    /// `FrameQueue::close`, before the queue lock.
    QueueClose,
    /// Before a scheduler-lock acquire.
    SchedLock,
    /// After a scheduler-lock release.
    SchedUnlock,
    /// `ShardTopology::admit` (scheduler lock held).
    ShardGrant,
    /// `ShardTopology::release` (scheduler lock held).
    ShardRelease,
}

#[cfg(not(test))]
#[inline(always)]
pub(crate) fn perturb(_site: Site) {}

#[cfg(test)]
pub(crate) use armed::{arm, perturb};

#[cfg(test)]
mod armed {
    use super::Site;
    use crate::faults::fault_hash;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// 0 = disarmed. Process-wide: worker and feeder threads must see it,
    /// and a unit test that runs beside the stress test is merely
    /// perturbed too.
    static SEED: AtomicU64 = AtomicU64::new(0);
    /// How often each [`Site`] was reached since the seed was armed.
    static REACHED: [AtomicU64; Site::ShardRelease as usize + 1] =
        [const { AtomicU64::new(0) }; Site::ShardRelease as usize + 1];

    /// Arms (`seed != 0`) or disarms the perturbation points.
    pub(crate) fn arm(seed: u64) {
        for n in &REACHED {
            n.store(0, Ordering::Relaxed);
        }
        SEED.store(seed, Ordering::SeqCst);
    }

    pub(crate) fn perturb(site: Site) {
        let seed = SEED.load(Ordering::Relaxed);
        if seed == 0 {
            return;
        }
        let count = REACHED[site as usize].fetch_add(1, Ordering::Relaxed);
        match fault_hash(seed, site as u32, count as usize, 0x5C) % 16 {
            0..=2 => std::thread::yield_now(),
            3 => std::thread::sleep(Duration::from_micros(20)),
            4 => std::thread::sleep(Duration::from_micros(150)),
            _ => {}
        }
    }
}
