//! The ingestion front-end: driving the service like a service.
//!
//! [`ServiceHandle`] is what a load generator (or a live detector feed)
//! holds: it submits frames into per-stream bounded queues, polls
//! completion notices, scrapes a point-in-time [`MetricsSnapshot`], and
//! finally joins the service thread for the full [`ServiceReport`].

use platform::bus::StreamId;
use platform::metrics::{MetricsSnapshot, Observability};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};

use super::core::{ServiceReport, StreamCompletion};
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
/// Dropping the handle closes every ingress queue and joins the service
/// thread, so no worker outlives it; call [`finish`](Self::finish)
/// instead to also receive the report.
pub struct ServiceHandle {
    queues: BTreeMap<StreamId, Arc<FrameQueue>>,
    completions: Mutex<mpsc::Receiver<StreamCompletion>>,
    obs: Option<Observability>,
    join: Option<std::thread::JoinHandle<ServiceReport>>,
}

impl ServiceHandle {
    pub(crate) fn new(
        queues: BTreeMap<StreamId, Arc<FrameQueue>>,
        completions: mpsc::Receiver<StreamCompletion>,
        obs: Option<Observability>,
        join: std::thread::JoinHandle<ServiceReport>,
    ) -> Self {
        Self {
            queues,
            completions: Mutex::new(completions),
            obs,
            join: Some(join),
        }
    }

    /// The registered stream ids, ascending.
    pub fn streams(&self) -> Vec<StreamId> {
        self.queues.keys().copied().collect()
    }

    /// Submits one frame to a stream's ingress queue. Under blocking
    /// backpressure this call blocks while the queue is full.
    pub fn submit(
        &self,
        stream: StreamId,
        index: usize,
        image: imaging::image::ImageU16,
    ) -> SubmitOutcome {
        let Some(queue) = self.queues.get(&stream) else {
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
        for q in self.queues.values() {
            q.close();
        }
    }

    /// Non-blocking poll for the next stream-completion notice.
    pub fn try_poll(&self) -> Option<StreamCompletion> {
        self.completions.lock().unwrap().try_recv().ok()
    }

    /// Point-in-time metrics scrape (None without attached
    /// observability).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.obs.as_ref().map(|o| o.snapshot())
    }

    /// Closes every ingress queue, waits for all streams to complete, and
    /// returns the full report. All service-owned threads (workers, shard
    /// pools, the admission loop) are joined before this returns.
    pub fn finish(mut self) -> ServiceReport {
        self.close_all();
        let join = self.join.take().expect("service thread still attached");
        join.join().expect("service thread never panics")
    }

    pub(crate) fn queue(&self, stream: StreamId) -> Option<Arc<FrameQueue>> {
        self.queues.get(&stream).cloned()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.close_all();
            let _ = join.join();
        }
    }
}
