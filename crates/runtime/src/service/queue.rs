//! Bounded per-stream ingress queues with backpressure.
//!
//! Frame arrival is decoupled from execution: a producer (live detector
//! feed, load generator) pushes frames into a [`FrameQueue`] while a
//! consumer takes them out. The queue is bounded — when it is
//! full the configured [`BackpressurePolicy`] either blocks the producer
//! (lossless, paces the source) or drops the oldest queued frame
//! (bounded-latency, favours freshness), mirroring the two classic
//! ingest disciplines of streaming services.
//!
//! A stand-alone queue has one consumer thread blocking in
//! [`FrameQueue::pop`]. The service core's queues have none: its workers
//! serve many queues, never block on an empty one (`try_pop`), and sleep
//! on the scheduler's own condvar, which `push` and `close` ring through
//! the queue's `Wake` hook.

use super::perturb::{perturb, Site};
use imaging::image::ImageU16;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// What happens to a producer pushing into a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// The producer blocks until the consumer frees a slot (lossless).
    Block,
    /// The oldest queued frame is discarded to make room (freshest-first;
    /// discarded frames are counted, never executed).
    DropOldest,
}

/// Result of a [`FrameQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The frame was enqueued.
    Enqueued,
    /// The frame was enqueued after evicting the oldest queued frame
    /// (only under [`BackpressurePolicy::DropOldest`]).
    DroppedOldest,
    /// The queue was closed; the frame was discarded.
    Closed,
}

/// Point-in-time ingress statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Frames accepted into the queue.
    pub enqueued: usize,
    /// Frames discarded by the drop-oldest policy (never executed).
    pub dropped: usize,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
}

struct Inner {
    frames: VecDeque<(usize, ImageU16)>,
    closed: bool,
    stats: QueueStats,
}

/// A consumer that multiplexes many queues and sleeps elsewhere: told
/// after every `push` and `close`, outside the queue's lock.
pub(crate) trait Wake: Send + Sync {
    /// Work may have become available.
    fn wake(&self);
}

/// What a consumer that never blocks finds at the head of a queue.
pub(crate) enum Head<T> {
    /// The oldest queued frame.
    Frame(T),
    /// Nothing queued, but the producer may still push.
    Empty,
    /// Closed and drained: nothing will ever arrive.
    Finished,
}

/// A bounded MPSC frame queue (indices paired with pixel data).
pub struct FrameQueue {
    inner: Mutex<Inner>,
    capacity: usize,
    policy: BackpressurePolicy,
    not_full: Condvar,
    not_empty: Condvar,
    /// Weak, because the consumer owns its queues.
    consumer: Option<Weak<dyn Wake>>,
}

impl FrameQueue {
    /// A queue holding at most `capacity` frames (clamped to ≥ 1).
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        Self {
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            capacity: capacity.max(1),
            policy,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            consumer: None,
        }
    }

    /// A queue whose `push` and `close` ring `consumer` instead of waking
    /// a thread blocked in [`pop`](Self::pop).
    pub(crate) fn for_consumer(
        capacity: usize,
        policy: BackpressurePolicy,
        consumer: Weak<dyn Wake>,
    ) -> Self {
        Self {
            consumer: Some(consumer),
            ..Self::new(capacity, policy)
        }
    }

    /// The queue's state, also after a holder panicked: every update
    /// under the lock leaves `Inner` consistent, so a poisoned guard is
    /// as good as a clean one.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake_consumer(&self) {
        match &self.consumer {
            Some(consumer) => {
                if let Some(consumer) = consumer.upgrade() {
                    consumer.wake();
                }
            }
            None => self.not_empty.notify_all(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers a frame. Under [`BackpressurePolicy::Block`] this blocks
    /// while the queue is full; under `DropOldest` it never blocks.
    pub fn push(&self, index: usize, image: ImageU16) -> PushOutcome {
        perturb(Site::QueuePush);
        let mut g = self.lock();
        if g.closed {
            return PushOutcome::Closed;
        }
        let mut outcome = PushOutcome::Enqueued;
        if g.frames.len() >= self.capacity {
            match self.policy {
                BackpressurePolicy::Block => {
                    while g.frames.len() >= self.capacity && !g.closed {
                        g = self
                            .not_full
                            .wait(g)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if g.closed {
                        return PushOutcome::Closed;
                    }
                }
                BackpressurePolicy::DropOldest => {
                    g.frames.pop_front();
                    g.stats.dropped += 1;
                    outcome = PushOutcome::DroppedOldest;
                }
            }
        }
        g.frames.push_back((index, image));
        g.stats.enqueued += 1;
        let depth = g.frames.len();
        g.stats.max_depth = g.stats.max_depth.max(depth);
        drop(g);
        self.wake_consumer();
        outcome
    }

    /// Takes the next frame, blocking while the queue is open but empty.
    /// Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<(usize, ImageU16)> {
        perturb(Site::QueuePop);
        let mut g = self.lock();
        loop {
            if let Some(f) = g.frames.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(f);
            }
            if g.closed {
                return None;
            }
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the next frame if one is queued; never blocks.
    pub(crate) fn try_pop(&self) -> Head<(usize, ImageU16)> {
        perturb(Site::QueuePop);
        let mut g = self.lock();
        match g.frames.pop_front() {
            Some(f) => {
                drop(g);
                self.not_full.notify_one();
                Head::Frame(f)
            }
            None if g.closed => Head::Finished,
            None => Head::Empty,
        }
    }

    /// What [`try_pop`](Self::try_pop) would find, taking nothing.
    pub(crate) fn head(&self) -> Head<()> {
        let g = self.lock();
        match (g.frames.is_empty(), g.closed) {
            (false, _) => Head::Frame(()),
            (true, true) => Head::Finished,
            (true, false) => Head::Empty,
        }
    }

    /// Closes the queue: producers are refused (and unblocked), the
    /// consumer drains what is left and then sees `None`.
    pub fn close(&self) {
        perturb(Site::QueueClose);
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        self.not_full.notify_all();
        self.wake_consumer();
    }

    /// Closed *and* drained: the consumer has nothing left to do.
    pub fn is_finished(&self) -> bool {
        let g = self.lock();
        g.closed && g.frames.is_empty()
    }

    /// Current ingress statistics.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Frames currently queued.
    fn depth(q: &FrameQueue) -> usize {
        q.lock().frames.len()
    }

    fn img(tag: u16) -> ImageU16 {
        let mut im = ImageU16::new(4, 4);
        im.fill(tag);
        im
    }

    #[test]
    fn fifo_order_and_stats() {
        let q = FrameQueue::new(4, BackpressurePolicy::Block);
        for i in 0..3 {
            assert_eq!(q.push(i, img(i as u16)), PushOutcome::Enqueued);
        }
        assert_eq!(depth(&q), 3);
        assert_eq!(q.pop().unwrap().0, 0);
        assert_eq!(q.pop().unwrap().0, 1);
        q.close();
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.max_depth, 3);
    }

    #[test]
    fn drop_oldest_discards_the_head() {
        let q = FrameQueue::new(2, BackpressurePolicy::DropOldest);
        assert_eq!(q.push(0, img(0)), PushOutcome::Enqueued);
        assert_eq!(q.push(1, img(1)), PushOutcome::Enqueued);
        assert_eq!(q.push(2, img(2)), PushOutcome::DroppedOldest);
        assert_eq!(depth(&q), 2);
        assert_eq!(q.pop().unwrap().0, 1, "frame 0 was dropped");
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 3);
    }

    #[test]
    fn push_after_close_is_refused() {
        let q = FrameQueue::new(2, BackpressurePolicy::Block);
        q.close();
        assert_eq!(q.push(0, img(0)), PushOutcome::Closed);
        assert!(q.is_finished());
    }

    #[test]
    fn blocking_producer_wakes_on_pop_and_close() {
        let q = Arc::new(FrameQueue::new(1, BackpressurePolicy::Block));
        assert_eq!(q.push(0, img(0)), PushOutcome::Enqueued);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let a = q2.push(1, img(1)); // blocks until the pop below
            let b = q2.push(2, img(2)); // blocks until close
            (a, b)
        });
        // unblock the first push
        assert_eq!(q.pop().unwrap().0, 0);
        // give the producer time to enqueue 1 and block on 2, then close
        while depth(&q) < 1 {
            std::thread::yield_now();
        }
        q.close();
        let (a, b) = producer.join().unwrap();
        assert_eq!(a, PushOutcome::Enqueued);
        assert_eq!(b, PushOutcome::Closed);
        assert_eq!(q.pop().unwrap().0, 1);
        assert_eq!(q.pop(), None);
    }

    /// A panicking holder poisons the mutex; pushes, pops (a blocked
    /// producer's wait included) and close go on without a panic.
    #[test]
    fn a_poisoned_queue_keeps_serving() {
        let q = Arc::new(FrameQueue::new(1, BackpressurePolicy::Block));
        crate::test_support::poison(&q.inner);
        assert_eq!(q.push(0, img(0)), PushOutcome::Enqueued);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1, img(1)));
        assert_eq!(q.pop().map(|f| f.0), Some(0));
        assert_eq!(producer.join().ok(), Some(PushOutcome::Enqueued));
        q.close();
        assert_eq!(q.pop().map(|f| f.0), Some(1));
        assert!(q.is_finished());
        assert_eq!(q.stats().enqueued, 2);
    }
}
