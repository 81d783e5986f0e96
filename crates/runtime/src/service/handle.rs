//! The ingestion front-end: driving the service like a service.
//!
//! [`ServiceHandle`] is what a load generator (or a live detector feed)
//! holds: it submits frames into per-stream bounded queues, polls
//! completion notices, scrapes a point-in-time [`MetricsSnapshot`], and
//! finally joins the workers for the full [`ServiceReport`].

use platform::bus::StreamId;
use platform::metrics::{MetricsSnapshot, Observability};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use super::core::{ServiceReport, Shared, StreamCompletion};
use super::queue::{FrameQueue, PushOutcome};

/// Result of a [`ServiceHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The frame was accepted (possibly after blocking on backpressure).
    Accepted,
    /// The frame was accepted; the oldest queued frame was discarded to
    /// make room (drop-oldest backpressure).
    DroppedOldest,
    /// The stream's ingress is closed (stream finished or failed).
    Rejected,
    /// No stream with that id was registered.
    UnknownStream,
}

/// Handle to a running service core (from
/// [`ServiceCore::spawn`](super::ServiceCore::spawn)).
///
/// Dropping the handle closes every ingress queue and joins the workers,
/// so none outlives it; call [`finish`](Self::finish) instead to also
/// receive the report.
pub struct ServiceHandle {
    /// Ingress queues, indexed by stream id.
    queues: Vec<Arc<FrameQueue>>,
    completions: Mutex<mpsc::Receiver<StreamCompletion>>,
    obs: Option<Observability>,
    /// The scheduler state; `None` once `finish` has taken the report.
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    pub(crate) fn new(
        queues: Vec<Arc<FrameQueue>>,
        completions: mpsc::Receiver<StreamCompletion>,
        obs: Option<Observability>,
        shared: Arc<Shared>,
        workers: Vec<JoinHandle<()>>,
    ) -> Self {
        Self {
            queues,
            completions: Mutex::new(completions),
            obs,
            shared: Some(shared),
            workers,
        }
    }

    /// The registered stream ids, ascending.
    pub fn streams(&self) -> Vec<StreamId> {
        (0..self.queues.len() as StreamId).collect()
    }

    /// Submits one frame to a stream's ingress queue. Under blocking
    /// backpressure this call blocks while the queue is full.
    pub fn submit(
        &self,
        stream: StreamId,
        index: usize,
        image: imaging::image::ImageU16,
    ) -> SubmitOutcome {
        let Some(queue) = self.queues.get(stream as usize) else {
            return SubmitOutcome::UnknownStream;
        };
        match queue.push(index, image) {
            PushOutcome::Enqueued => SubmitOutcome::Accepted,
            PushOutcome::DroppedOldest => SubmitOutcome::DroppedOldest,
            PushOutcome::Closed => SubmitOutcome::Rejected,
        }
    }

    /// Declares every stream's input finished.
    pub fn close_all(&self) {
        for q in &self.queues {
            q.close();
        }
    }

    /// Non-blocking poll for the next stream-completion notice.
    pub fn try_poll(&self) -> Option<StreamCompletion> {
        let completions = self
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        completions.try_recv().ok()
    }

    /// Point-in-time metrics scrape (None without attached
    /// observability).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.obs.as_ref().map(|o| o.snapshot())
    }

    /// Closes every ingress queue, waits for all streams to complete, and
    /// returns the full report. All service-owned threads (workers, shard
    /// pools) are joined before this returns. A worker that panicked — a
    /// scheduler bug, not a failed stream — is re-raised here.
    pub fn finish(mut self) -> ServiceReport {
        self.close_all();
        for worker in self.workers.drain(..) {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let shared = self.shared.take().expect("finish runs once");
        // queues hold the scheduler weakly and every producer borrows this
        // handle or was joined by `run_batch`: ours is the last reference
        let shared = Arc::into_inner(shared).expect("no producer outlives the handle");
        shared.into_report(self.obs.as_ref())
    }

    pub(crate) fn queue(&self, stream: StreamId) -> Option<Arc<FrameQueue>> {
        self.queues.get(stream as usize).cloned()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.close_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::service::{ServiceConfig, ServiceCore};
    use crate::session::StreamSpec;
    use crate::test_support::{poison, seq, trained_model};
    use pipeline::app::AppConfig;
    use std::time::{Duration, Instant};

    /// `try_poll` serves completions from a lock a panicking holder
    /// poisoned.
    #[test]
    fn try_poll_reads_a_poisoned_lock() {
        let spec = StreamSpec::builder(seq(120, 3), AppConfig::default(), trained_model()).build();
        let handle = ServiceCore::new(ServiceConfig::default()).spawn(vec![spec]);
        poison(&handle.completions);
        for frame in xray::SequenceGenerator::new(seq(120, 3)) {
            handle.submit(0, frame.index, frame.image);
        }
        handle.close_all();
        let deadline = Instant::now() + Duration::from_secs(60);
        let done = loop {
            if let Some(done) = handle.try_poll() {
                break done;
            }
            assert!(Instant::now() < deadline, "no completion notice");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!((done.stream, done.frames), (0, 3));
        assert_eq!(handle.finish().session.total_frames, 3);
    }
}
