//! The service core: a continuously-admitting, shard-placing scheduler.
//!
//! Streams are registered up front (engine parked, ingress queue open,
//! demand predicted) and an admission loop on a dedicated service thread
//! then drives the state machine per stream:
//!
//! ```text
//!   Pending ──place fits──▶ Running ──queue drained──▶ Finished
//!     ▲  ╲──no headroom──▶ Queued (StreamQueued)           │
//!     │                                                     ▼
//!     └───────── Evicted (time-slice, StreamEvicted) ◀── Failed
//! ```
//!
//! Admission compares each stream's Triple-C [`StreamDemand`] against
//! per-shard free cores (best-fit placement); a re-admitted stream that
//! lands on a different shard emits [`FrameEvent::ShardRebalanced`].
//! This is the crate's only multi-stream scheduler: every stream it runs
//! goes through [`StreamEngine::step_on`], and `StreamAdmitted` /
//! `StreamEvicted` bracket each residency on a shard.

use crate::session::{
    panic_payload_message, SessionReport, StreamFailure, StreamResult, StreamSpec,
};
use imaging::parallel::StripePool;
use platform::arch::ArchModel;
use platform::bus::{FrameEvent, StreamId};
use platform::metrics::Observability;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use super::admission::{predict_demand, EvictionPolicy, StreamDemand};
use super::engine::StreamEngine;
use super::handle::ServiceHandle;
use super::queue::{BackpressurePolicy, FrameQueue, QueueStats};
use super::shard::{ShardLayout, ShardTopology};

/// Service-core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The shared modelled-core budget shards are carved from.
    pub total_cores: usize,
    /// How the budget is partitioned into pool shards.
    pub layout: ShardLayout,
    /// Per-stream ingress queue capacity, frames.
    pub queue_capacity: usize,
    /// What a producer hitting a full ingress queue experiences.
    pub backpressure: BackpressurePolicy,
    /// Whether (and when) running streams yield to waiting ones.
    pub eviction: EvictionPolicy,
    /// Cap on concurrently running streams (further streams queue).
    pub max_concurrent: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = ArchModel::default().cores;
        Self {
            total_cores: cores,
            layout: ShardLayout::PerCoreGroup,
            queue_capacity: 4,
            backpressure: BackpressurePolicy::Block,
            eviction: EvictionPolicy::None,
            max_concurrent: cores,
        }
    }
}

/// A completion notice delivered through [`ServiceHandle::try_poll`].
#[derive(Debug, Clone)]
pub struct StreamCompletion {
    /// The stream that finished.
    pub stream: StreamId,
    /// Frames it consumed (executed plus injection-dropped).
    pub frames: usize,
    /// True when the stream ended in failure instead of completing.
    pub failed: bool,
}

/// Per-stream service-tier statistics (admission latency, placement,
/// eviction and ingress accounting) alongside the frame-level
/// [`StreamResult`]s in the session report.
#[derive(Debug, Clone)]
pub struct StreamServiceStats {
    /// The stream.
    pub stream: StreamId,
    /// Last shard the stream ran on.
    pub shard: Option<usize>,
    /// Cores granted (predicted demand clamped to the widest shard).
    pub cores: usize,
    /// The demand prediction admission worked from.
    pub demand: StreamDemand,
    /// Wait from registration to first admission, ms.
    pub admission_wait_ms: f64,
    /// Times the stream was evicted mid-run.
    pub evictions: usize,
    /// Re-admissions that landed on a different shard.
    pub migrations: usize,
    /// Ingress-queue accounting (enqueued / dropped / high-water depth).
    pub queue: QueueStats,
    /// True when every eviction checkpoint round-tripped the model
    /// snapshot byte-identically (vacuously true without evictions).
    pub snapshot_roundtrip_ok: bool,
}

/// Result of a whole service run.
pub struct ServiceReport {
    /// The session-level report (per-stream results, failures, metrics).
    pub session: SessionReport,
    /// Service-tier statistics, ordered by stream id.
    pub streams: Vec<StreamServiceStats>,
    /// Shards the topology was carved into.
    pub shards: usize,
}

/// The sharded, prediction-admitted service scheduler.
pub struct ServiceCore {
    cfg: ServiceConfig,
    obs: Option<Observability>,
}

struct Entry {
    queue: Arc<FrameQueue>,
    /// Parked engine; `None` while the stream is running on a worker.
    engine: Option<StreamEngine>,
    demand: StreamDemand,
    granted: usize,
    shard: Option<usize>,
    last_shard: Option<usize>,
    queued_since: Instant,
    admission_wait_ms: Option<f64>,
    evictions: usize,
    migrations: usize,
    snapshot_ok: bool,
    queued_evented: bool,
    done: bool,
}

enum Exit {
    Finished(Box<StreamResult>),
    Failed(StreamFailure),
    Evicted(Box<StreamEngine>),
    Panicked(String),
}

struct WorkerExit {
    id: StreamId,
    exit: Exit,
}

impl ServiceCore {
    /// A service core over the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self { cfg, obs: None }
    }

    /// Attaches an [`Observability`] instance: every stream's bus feeds
    /// its metrics registry and span collector (service-tier admission
    /// events included), and the final report carries a snapshot.
    #[must_use = "returns the core with observability attached"]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Registers the streams and starts the admission loop on a service
    /// thread, returning the ingestion front-end. Frames are then fed via
    /// [`ServiceHandle::submit`]; call [`ServiceHandle::finish`] for the
    /// report.
    pub fn spawn(&self, specs: Vec<StreamSpec>) -> ServiceHandle {
        let widest = self.cfg.layout.shard_width(self.cfg.total_cores.max(1));
        let mut entries: BTreeMap<StreamId, Entry> = BTreeMap::new();
        let mut queues: BTreeMap<StreamId, Arc<FrameQueue>> = BTreeMap::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let id = i as StreamId;
            let demand = predict_demand(&spec, widest, spec.admission);
            let granted = demand.cores.clamp(1, widest);
            let mut engine = StreamEngine::new(id, spec, granted);
            if let Some(obs) = &self.obs {
                engine.attach_observability(obs);
            }
            let queue = Arc::new(FrameQueue::new(
                self.cfg.queue_capacity,
                self.cfg.backpressure,
            ));
            queues.insert(id, Arc::clone(&queue));
            entries.insert(
                id,
                Entry {
                    queue,
                    engine: Some(engine),
                    demand,
                    granted,
                    shard: None,
                    last_shard: None,
                    queued_since: Instant::now(),
                    admission_wait_ms: None,
                    evictions: 0,
                    migrations: 0,
                    snapshot_ok: true,
                    queued_evented: false,
                    done: false,
                },
            );
        }
        let (done_tx, done_rx) = mpsc::channel::<StreamCompletion>();
        let cfg = self.cfg;
        let obs = self.obs.clone();
        let join = std::thread::Builder::new()
            .name("triplec-service".into())
            .spawn(move || service_loop(cfg, obs, entries, done_tx))
            .expect("spawn service thread");
        ServiceHandle::new(queues, done_rx, self.obs.clone(), join)
    }

    /// Batch convenience: generates every stream's own sequence on feeder
    /// threads (through the bounded ingress queues, so backpressure is
    /// exercised), runs all streams to completion, and reports.
    pub fn run_batch(&self, specs: Vec<StreamSpec>) -> ServiceReport {
        let feeds: Vec<(StreamId, xray::SequenceConfig)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as StreamId, s.seq.clone()))
            .collect();
        let handle = self.spawn(specs);
        let feeders: Vec<_> = feeds
            .into_iter()
            .map(|(id, seq)| {
                let queue = handle.queue(id).expect("registered stream");
                std::thread::spawn(move || {
                    for frame in xray::SequenceGenerator::new(seq) {
                        if matches!(
                            queue.push(frame.index, frame.image),
                            super::queue::PushOutcome::Closed
                        ) {
                            break;
                        }
                    }
                    queue.close();
                })
            })
            .collect();
        for f in feeders {
            let _ = f.join();
        }
        handle.finish()
    }
}

/// One stream's worker: pops frames off the ingress queue and steps the
/// engine on its shard's pool until the queue drains, the time slice
/// expires with others waiting, or the stream fails.
fn stream_worker(
    mut engine: StreamEngine,
    queue: Arc<FrameQueue>,
    pool: Option<Arc<StripePool>>,
    slice: Option<usize>,
    waiting: Arc<AtomicUsize>,
) -> Exit {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let pool_ref: &StripePool = match &pool {
            Some(p) => p,
            None => StripePool::global(),
        };
        let mut steps = 0usize;
        loop {
            if let Some(limit) = slice {
                if steps >= limit && waiting.load(Ordering::SeqCst) > 0 && !queue.is_finished() {
                    return Exit::Evicted(Box::new(engine));
                }
            }
            match queue.pop() {
                Some((index, image)) => {
                    if let Err(f) = engine.step_on(pool_ref, index, &image) {
                        return Exit::Failed(f);
                    }
                    steps += 1;
                }
                None => return Exit::Finished(Box::new(engine.finish())),
            }
        }
    }));
    match run {
        Ok(exit) => exit,
        Err(payload) => Exit::Panicked(panic_payload_message(payload.as_ref())),
    }
}

fn service_loop(
    cfg: ServiceConfig,
    obs: Option<Observability>,
    mut entries: BTreeMap<StreamId, Entry>,
    done_tx: mpsc::Sender<StreamCompletion>,
) -> ServiceReport {
    let t0 = Instant::now();
    let mut topology = ShardTopology::new(cfg.layout, cfg.total_cores);
    let max_concurrent = cfg.max_concurrent.max(1);
    let slice = match cfg.eviction {
        EvictionPolicy::TimeSlice { frames } => Some(frames.max(1)),
        EvictionPolicy::None => None,
    };
    // parked streams awaiting (re-)admission, in arrival order
    let mut pending: VecDeque<StreamId> = entries.keys().copied().collect();
    let waiting = Arc::new(AtomicUsize::new(pending.len()));
    let (exit_tx, exit_rx) = mpsc::channel::<WorkerExit>();
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut running = 0usize;
    let mut results: Vec<StreamResult> = Vec::new();
    let mut failures: Vec<StreamFailure> = Vec::new();

    loop {
        // admission pass: first-come first-fit against shard headroom
        let mut parked: VecDeque<StreamId> = VecDeque::new();
        while let Some(id) = pending.pop_front() {
            if running >= max_concurrent {
                parked.push_back(id);
                continue;
            }
            let entry = entries.get_mut(&id).expect("pending stream registered");
            let granted = entry.granted;
            let Some(shard) = topology.place(granted) else {
                parked.push_back(id);
                continue;
            };
            topology.admit(shard, granted);
            waiting.fetch_sub(1, Ordering::SeqCst);
            let queued_ms = entry.queued_since.elapsed().as_secs_f64() * 1000.0;
            if entry.admission_wait_ms.is_none() {
                entry.admission_wait_ms = Some(queued_ms);
            }
            let mut engine = entry.engine.take().expect("pending stream has an engine");
            let frame = engine.frames_done();
            if let Some(prev) = entry.last_shard {
                if prev != shard {
                    entry.migrations += 1;
                    engine.emit(FrameEvent::ShardRebalanced {
                        stream: id,
                        frame,
                        from_shard: prev,
                        to_shard: shard,
                    });
                }
            }
            engine.emit(FrameEvent::StreamAdmitted {
                stream: id,
                frame,
                shard,
                cores: granted,
                queued_ms,
            });
            entry.shard = Some(shard);
            entry.last_shard = Some(shard);
            entry.queued_evented = false;
            let queue = Arc::clone(&entry.queue);
            let pool = topology.pool(shard);
            let tx = exit_tx.clone();
            let waiting_w = Arc::clone(&waiting);
            running += 1;
            workers.push(std::thread::spawn(move || {
                let exit = stream_worker(engine, queue, pool, slice, waiting_w);
                let _ = tx.send(WorkerExit { id, exit });
            }));
        }
        pending = parked;

        // streams still parked announce themselves (once per parking)
        let depth = pending.len();
        for id in &pending {
            let entry = entries.get_mut(id).expect("parked stream registered");
            if !entry.queued_evented {
                entry.queued_evented = true;
                if let Some(engine) = entry.engine.as_mut() {
                    let frame = engine.frames_done();
                    engine.emit(FrameEvent::StreamQueued {
                        stream: *id,
                        frame,
                        depth,
                    });
                }
            }
        }

        if running == 0 {
            if pending.is_empty() {
                break;
            }
            // every grant fits the widest shard, so with nothing running
            // at least one pending stream must place
            debug_assert!(false, "admission stalled with idle shards");
            break;
        }

        // block for one worker exit, then drain any others ready
        let Ok(first) = exit_rx.recv() else { break };
        let mut exits = vec![first];
        while let Ok(more) = exit_rx.try_recv() {
            exits.push(more);
        }
        for WorkerExit { id, exit } in exits {
            let entry = entries.get_mut(&id).expect("exited stream registered");
            if let Some(shard) = entry.shard.take() {
                topology.release(shard, entry.granted);
            }
            running -= 1;
            match exit {
                Exit::Finished(result) => {
                    entry.done = true;
                    let _ = done_tx.send(StreamCompletion {
                        stream: id,
                        frames: result.trace.len() + result.dropped_frames,
                        failed: false,
                    });
                    results.push(*result);
                }
                Exit::Failed(f) => {
                    entry.done = true;
                    // refuse further ingress so batch feeders unblock
                    entry.queue.close();
                    let _ = done_tx.send(StreamCompletion {
                        stream: id,
                        frames: f.frames_completed,
                        failed: true,
                    });
                    failures.push(f);
                }
                Exit::Panicked(message) => {
                    entry.done = true;
                    entry.queue.close();
                    let _ = done_tx.send(StreamCompletion {
                        stream: id,
                        frames: 0,
                        failed: true,
                    });
                    failures.push(StreamFailure {
                        stream: id,
                        message: format!("stream thread panicked: {message}"),
                        frames_completed: 0,
                    });
                }
                Exit::Evicted(engine) => {
                    let mut engine = *engine;
                    let frame = engine.frames_done();
                    let shard = entry.last_shard.unwrap_or(0);
                    engine.emit(FrameEvent::StreamEvicted {
                        stream: id,
                        frame,
                        shard,
                    });
                    entry.evictions += 1;
                    // eviction checkpoint: the parked model must survive a
                    // serialize → restore round trip byte-identically
                    let snapshot = engine.model_snapshot();
                    let restored = engine.restore_model(&snapshot);
                    let roundtrip = engine.model_snapshot();
                    entry.snapshot_ok &= restored && roundtrip == snapshot;
                    entry.engine = Some(engine);
                    entry.queued_since = Instant::now();
                    waiting.fetch_add(1, Ordering::SeqCst);
                    pending.push_back(id);
                }
            }
        }
    }

    drop(exit_tx);
    for w in workers {
        let _ = w.join();
    }

    results.sort_by_key(|r| r.stream);
    failures.sort_by_key(|f| f.stream);
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let total_frames: usize = results.iter().map(|r| r.trace.len()).sum();
    let aggregate_fps = if wall_ms > 0.0 {
        total_frames as f64 / (wall_ms / 1000.0)
    } else {
        0.0
    };
    let streams = entries
        .iter()
        .map(|(&id, e)| StreamServiceStats {
            stream: id,
            shard: e.last_shard,
            cores: e.granted,
            demand: e.demand,
            admission_wait_ms: e.admission_wait_ms.unwrap_or(0.0),
            evictions: e.evictions,
            migrations: e.migrations,
            queue: e.queue.stats(),
            snapshot_roundtrip_ok: e.snapshot_ok,
        })
        .collect();
    let shards = topology.shard_count();
    // joining the topology's per-shard pools here keeps the report's
    // thread accounting exact: after `finish` no service thread remains
    drop(topology);
    ServiceReport {
        session: SessionReport {
            streams: results,
            failures,
            wall_ms,
            total_frames,
            aggregate_fps,
            metrics: obs.as_ref().map(|o| o.snapshot()),
        },
        streams,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::LatencyBudget;
    use crate::test_support::{seq, trained_model};
    use pipeline::app::AppConfig;

    #[test]
    fn service_outputs_match_unscheduled_engines_bit_identically() {
        let specs = || {
            vec![
                StreamSpec::builder(seq(201, 5), AppConfig::default(), trained_model()).build(),
                StreamSpec::builder(seq(202, 4), AppConfig::default(), trained_model()).build(),
                StreamSpec::builder(seq(203, 6), AppConfig::default(), trained_model()).build(),
            ]
        };
        // the reference has no scheduler in it at all
        let reference: Vec<StreamResult> = specs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                StreamEngine::new(i as StreamId, spec, 1)
                    .run()
                    .expect("nominal stream completes")
            })
            .collect();
        let svc = ServiceCore::new(ServiceConfig {
            layout: ShardLayout::Grouped { group: 2 },
            ..Default::default()
        })
        .run_batch(specs());
        assert!(svc.session.is_clean(), "{:?}", svc.session.failures);
        assert_eq!(svc.shards, 4);
        assert_eq!(svc.session.streams.len(), 3);
        for (a, b) in reference.iter().zip(&svc.session.streams) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.scenarios, b.scenarios, "stream {}", a.stream);
            assert_eq!(a.displays, b.displays, "pixel outputs diverged");
        }
        for s in &svc.streams {
            assert!(s.shard.is_some());
            assert!(s.queue.enqueued > 0);
            assert!(s.snapshot_roundtrip_ok);
        }
    }

    #[test]
    fn time_slice_eviction_round_robins_and_completes() {
        let cfg = ServiceConfig {
            total_cores: 2,
            layout: ShardLayout::Single,
            queue_capacity: 2,
            backpressure: BackpressurePolicy::Block,
            eviction: EvictionPolicy::TimeSlice { frames: 2 },
            max_concurrent: 1,
        };
        let specs = vec![
            StreamSpec::builder(seq(204, 6), AppConfig::default(), trained_model()).build(),
            StreamSpec::builder(seq(205, 6), AppConfig::default(), trained_model()).build(),
        ];
        let report = ServiceCore::new(cfg).run_batch(specs);
        assert!(report.session.is_clean(), "{:?}", report.session.failures);
        assert_eq!(report.session.total_frames, 12);
        for s in &report.streams {
            assert!(s.evictions > 0, "stream {} never yielded", s.stream);
            assert!(
                s.snapshot_roundtrip_ok,
                "stream {} lost model state",
                s.stream
            );
        }
        for r in &report.session.streams {
            assert_eq!(r.trace.len(), 6);
        }
    }

    #[test]
    fn drop_oldest_ingress_accounts_for_every_frame() {
        let cfg = ServiceConfig {
            queue_capacity: 1,
            backpressure: BackpressurePolicy::DropOldest,
            ..Default::default()
        };
        let specs =
            vec![StreamSpec::builder(seq(206, 12), AppConfig::default(), trained_model()).build()];
        let report = ServiceCore::new(cfg).run_batch(specs);
        assert!(report.session.is_clean());
        let s = &report.streams[0];
        let executed = report.session.streams[0].trace.len();
        assert_eq!(
            executed,
            s.queue.enqueued - s.queue.dropped,
            "executed frames must equal enqueued minus ingress-dropped"
        );
        assert!(s.queue.max_depth <= 1);
    }

    #[test]
    fn tight_budget_streams_are_granted_multiple_cores() {
        let cfg = ServiceConfig {
            layout: ShardLayout::Grouped { group: 4 },
            ..Default::default()
        };
        let specs = vec![
            StreamSpec::builder(seq(207, 4), AppConfig::default(), trained_model())
                .budget(LatencyBudget::new(0.001, 0.0))
                .build(),
        ];
        let report = ServiceCore::new(cfg).run_batch(specs);
        assert!(report.session.is_clean());
        let s = &report.streams[0];
        assert!(s.cores > 1, "demand prediction ignored the tight budget");
        assert!(s.cores <= 4, "grant exceeded the shard width");
        assert_eq!(report.session.streams[0].cores, s.cores);
    }

    #[test]
    fn service_emits_admission_metrics() {
        let obs = Observability::new();
        let specs = vec![
            StreamSpec::builder(seq(208, 3), AppConfig::default(), trained_model()).build(),
            StreamSpec::builder(seq(209, 3), AppConfig::default(), trained_model()).build(),
        ];
        let core = ServiceCore::new(ServiceConfig {
            max_concurrent: 1,
            ..Default::default()
        })
        .with_observability(obs);
        let report = core.run_batch(specs);
        assert!(report.session.is_clean());
        let snap = report.session.metrics.as_ref().expect("metrics snapshot");
        assert!(
            snap.counter_total("streams_admitted") >= 2,
            "every stream admits at least once"
        );
        assert!(
            snap.counter_total("streams_queued") >= 1,
            "with max_concurrent=1 someone must queue"
        );
    }
}
