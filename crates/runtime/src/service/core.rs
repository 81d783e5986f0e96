//! The service core: shortest predicted remaining work first, over a
//! fixed worker set.
//!
//! Streams are registered up front (engine parked, ingress queue open,
//! demand predicted). One scheduler state — the parked engines, the
//! ingress queues, the shard grants — sits behind one mutex, and
//! `min(max_concurrent, available_parallelism)` workers started once in
//! [`ServiceCore::spawn`] serve it; they sleep on one condvar, which
//! `FrameQueue::push` and `close` ring too. Per stream:
//!
//! ```text
//!            pick: a shard fits              queue closed and drained
//!   Parked ───────────────────────▶ Stepping ─────────────────────────▶ Finished
//!     ▲    (first turn: StreamAdmitted)  │  ─────────step failed───────▶ Failed
//!     │                                  │
//!     └──── queue empty, or outranked ◀──┘
//!           (TimeSlice: StreamEvicted)
//! ```
//!
//! A free worker takes the *ready* stream — engine parked, and a frame
//! queued or the queue closed and drained — with the least predicted
//! remaining work (frames still owed × the predicted per-frame cost at
//! the stream's [`AdmissionPolicy`](super::AdmissionPolicy) point:
//! [`StreamDemand::predicted_ms`] before its first frame, the last
//! frame's planned cost after; finishing a frame never raises it), ties
//! to the lower id, and whose cores a shard can grant (best fit against
//! per-shard free cores; a turn on another shard than the last emits
//! [`FrameEvent::ShardRebalanced`]). It steps the stream outside the lock
//! while frames are queued and parks it again, which gives the cores back:
//! a grant lasts one turn, so a stream whose input has run dry holds
//! nothing and never keeps another from running.
//!
//! Pre-emption exists only under [`EvictionPolicy::TimeSlice`], whose
//! `frames` is the quantum at which a stepping stream looks up: it parks
//! when a ready stream with strictly less remaining work waits and either
//! no worker is free for it or no shard can grant its cores. So an
//! equal-length batch runs to completion in stream order without a single
//! pre-emption, and a stream is overtaken only by streams with less
//! predicted work left — in a closed batch its wait is bounded by the work
//! shorter than it.
//!
//! This is the crate's only multi-stream scheduler: every stream it runs
//! goes through [`StreamEngine::step_on`], so pixels, plans and ledgers do
//! not depend on the order it chose.

use crate::manager::host_cores;
use crate::session::{
    panic_payload_message, SessionReport, StreamFailure, StreamResult, StreamSpec,
};
use imaging::image::ImageU16;
use imaging::parallel::StripePool;
use platform::bus::{FrameEvent, StreamId};
use platform::metrics::{Labels, Observability};
use std::sync::{mpsc, Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

use super::admission::{predict_demand, EvictionPolicy, StreamDemand};
use super::engine::StreamEngine;
use super::handle::ServiceHandle;
use super::perturb::{perturb, Site};
use super::queue::{BackpressurePolicy, FrameQueue, Head, QueueStats, Wake};
use super::shard::{ShardLayout, ShardTopology};

/// Service-core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The core budget shards are carved from; defaults to the host's.
    pub total_cores: usize,
    /// How the budget is partitioned into pool shards.
    pub layout: ShardLayout,
    /// Per-stream ingress queue capacity, frames.
    pub queue_capacity: usize,
    /// What a producer hitting a full ingress queue experiences.
    pub backpressure: BackpressurePolicy,
    /// Whether a stepping stream yields to a shorter waiting one.
    pub eviction: EvictionPolicy,
    /// The number of workers that step streams, capped by the host's
    /// parallelism. A shard grant lasts one turn, so this also caps the
    /// streams holding one at once.
    pub max_concurrent: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = host_cores();
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
/// pre-emption and ingress accounting) alongside the frame-level
/// [`StreamResult`]s in the session report.
#[derive(Debug, Clone)]
pub struct StreamServiceStats {
    /// The stream.
    pub stream: StreamId,
    /// Shard of the stream's last turn.
    pub shard: Option<usize>,
    /// Cores granted per turn (predicted demand clamped to the widest
    /// shard).
    pub cores: usize,
    /// The demand prediction admission worked from.
    pub demand: StreamDemand,
    /// Wait from registration to the first turn, ms. Streams get their
    /// first turn in rank order as workers come free, so in a batch this
    /// is the work that ran ahead of the stream, not a sign of overload.
    pub admission_wait_ms: f64,
    /// Quantum checks at which the stream parked for a waiting stream with
    /// less predicted remaining work (never under [`EvictionPolicy::None`],
    /// and never in a batch of equally long streams).
    pub evictions: usize,
    /// Turns that ran on a different shard than the stream's previous one.
    pub migrations: usize,
    /// Ingress-queue accounting (enqueued / dropped / high-water depth).
    pub queue: QueueStats,
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

/// The sharded, prediction-ranked service scheduler.
pub struct ServiceCore {
    cfg: ServiceConfig,
    obs: Option<Observability>,
}

/// One registered stream in the scheduler state.
struct Slot {
    queue: Arc<FrameQueue>,
    /// The parked engine (boxed once: it changes hands at every turn);
    /// `None` while a worker steps it and once the stream is done.
    engine: Option<Box<StreamEngine>>,
    demand: StreamDemand,
    granted: usize,
    /// The rank key ([`Slot::rank_of`]), refreshed whenever the engine is
    /// parked.
    remaining_ms: f64,
    /// The shard granted for the current turn; `None` while parked.
    shard: Option<usize>,
    last_shard: Option<usize>,
    /// Set at the first turn.
    admission_wait_ms: Option<f64>,
    evictions: usize,
    migrations: usize,
    queued_evented: bool,
}

impl Slot {
    /// The stream's rank key with its engine in this state: the predicted
    /// remaining work, but never more than it was. The per-frame cost is
    /// re-predicted every frame and the figure admission worked from can
    /// be well below it (it is made blind, before the first frame);
    /// without the clamp a stream would look longer after its first frames
    /// than an equal one that has not started, and be pre-empted for it.
    fn rank_of(&self, engine: &StreamEngine) -> f64 {
        (engine.remaining_ms(self.demand.predicted_ms)).min(self.remaining_ms)
    }
}

/// [`ServiceCore::register`]'s product: the scheduler state, the ingress
/// queues by stream id, the receiving end of the completion notices.
type Registered = (
    Arc<Shared>,
    Vec<Arc<FrameQueue>>,
    mpsc::Receiver<StreamCompletion>,
);

/// What a worker leaves the lock with: one stream to step.
struct Job {
    id: usize,
    engine: Box<StreamEngine>,
    queue: Arc<FrameQueue>,
    /// The shard's pool (`None` = the process-global one).
    pool: Option<Arc<StripePool>>,
    /// This pick's placement events, emitted outside the lock.
    events: Vec<FrameEvent>,
}

/// How a worker's turn with a stream ended.
enum End {
    Parked(Box<StreamEngine>),
    Finished(Box<StreamResult>),
    Failed(StreamFailure),
}

/// The scheduler state, behind [`Shared`]'s mutex.
struct Sched {
    slots: Vec<Slot>,
    topology: ShardTopology,
    /// Frames between pre-emption checks (`None`: never pre-empt).
    quantum: Option<usize>,
    /// Workers asleep on the condvar.
    idle: usize,
    /// Streams neither finished nor failed.
    unfinished: usize,
    /// A worker panicked: the others stop, `finish` re-raises.
    aborted: bool,
    results: Vec<StreamResult>,
    failures: Vec<StreamFailure>,
    done_tx: mpsc::Sender<StreamCompletion>,
    /// Registration: admission waits and the wall time count from here.
    t0: Instant,
    /// Spawn to last completion, ms.
    wall_ms: f64,
}

/// The scheduler state and the condvar its workers sleep on.
pub(crate) struct Shared {
    sched: Mutex<Sched>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        perturb(Site::SchedLock);
        Self::checked(self.sched.lock())
    }

    /// Sleeps until the scheduler is rung.
    fn wait<'a>(&self, sched: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
        Self::checked(self.work.wait(sched))
    }

    /// A poisoned lock means a worker panicked in the middle of an update:
    /// the state is handed out only marked `aborted`, which stops every
    /// worker before it looks at anything else.
    fn checked(locked: LockResult<MutexGuard<'_, Sched>>) -> MutexGuard<'_, Sched> {
        locked.unwrap_or_else(|poisoned| {
            let mut sched = poisoned.into_inner();
            sched.aborted = true;
            sched
        })
    }
}

impl Wake for Shared {
    /// Rung by `FrameQueue::push` / `close`. Taking the lock orders the
    /// ring against a worker's scan: either the scan saw the frame, or the
    /// worker is asleep — and counted in `idle` — by the time we look.
    fn wake(&self) {
        if self.lock().idle > 0 {
            self.work.notify_one();
        }
    }
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

    /// Registers the streams and starts the workers, returning the
    /// ingestion front-end. Frames are then fed via
    /// [`ServiceHandle::submit`]; call [`ServiceHandle::finish`] for the
    /// report. These workers are the only threads the core ever starts.
    pub fn spawn(&self, specs: Vec<StreamSpec>) -> ServiceHandle {
        let (shared, queues, completions) = self.register(specs);
        let workers = self.cfg.max_concurrent.clamp(1, host_cores());
        if let Some(obs) = &self.obs {
            obs.metrics()
                .set_gauge("service_workers", Labels::none(), workers as f64);
        }
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("service-worker-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        ServiceHandle::new(queues, completions, self.obs.clone(), shared, workers)
    }

    /// Builds the scheduler state: every stream's engine parked, its
    /// demand predicted, its ingress queue open and wired to ring the
    /// scheduler. Returns the state, the queues by stream id, and the
    /// receiving end of the completion notices.
    fn register(&self, specs: Vec<StreamSpec>) -> Registered {
        let cfg = self.cfg;
        let widest = cfg.layout.shard_width(cfg.total_cores.max(1));
        let (done_tx, done_rx) = mpsc::channel::<StreamCompletion>();
        let shared = Arc::new_cyclic(|me: &Weak<Shared>| {
            let slots: Vec<Slot> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| {
                    let demand = predict_demand(&spec, widest, spec.admission);
                    let granted = demand.cores.clamp(1, widest);
                    let mut engine = StreamEngine::new(i as StreamId, spec, granted);
                    if let Some(obs) = &self.obs {
                        engine.attach_observability(obs);
                    }
                    let consumer: Weak<dyn Wake> = me.clone();
                    Slot {
                        queue: Arc::new(FrameQueue::for_consumer(
                            cfg.queue_capacity,
                            cfg.backpressure,
                            consumer,
                        )),
                        remaining_ms: engine.remaining_ms(demand.predicted_ms),
                        engine: Some(Box::new(engine)),
                        demand,
                        granted,
                        shard: None,
                        last_shard: None,
                        admission_wait_ms: None,
                        evictions: 0,
                        migrations: 0,
                        queued_evented: false,
                    }
                })
                .collect();
            let widest_grant = slots.iter().map(|slot| slot.granted).max().unwrap_or(1);
            Shared {
                sched: Mutex::new(Sched {
                    unfinished: slots.len(),
                    slots,
                    topology: ShardTopology::for_grants(cfg.layout, cfg.total_cores, widest_grant),
                    quantum: match cfg.eviction {
                        EvictionPolicy::TimeSlice { frames } => Some(frames.max(1)),
                        EvictionPolicy::None => None,
                    },
                    idle: 0,
                    aborted: false,
                    results: Vec::new(),
                    failures: Vec::new(),
                    done_tx,
                    t0: Instant::now(),
                    wall_ms: 0.0,
                }),
                work: Condvar::new(),
            }
        });
        let queues = (shared.lock().slots.iter())
            .map(|slot| Arc::clone(&slot.queue))
            .collect();
        (shared, queues, done_rx)
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

/// Stops the other workers when this one unwinds (a scheduler bug, or a
/// bus subscriber panicking under the lock), so `finish` re-raises the
/// panic instead of waiting for streams nobody will complete.
struct AbortOnPanic<'a>(&'a Shared);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.work.notify_all();
        }
    }
}

/// One of the fixed workers: pick the ready stream with the least
/// remaining work, step it outside the lock while it has frames, park or
/// retire it, pick again; sleep when nothing is ready.
fn worker(shared: &Shared) {
    let _abort = AbortOnPanic(shared);
    let mut sched = shared.lock();
    while !sched.aborted {
        let Some(job) = sched.pick() else {
            if sched.unfinished == 0 {
                break;
            }
            sched.idle += 1;
            sched = shared.wait(sched);
            sched.idle -= 1;
            continue;
        };
        let quantum = sched.quantum;
        drop(sched);
        perturb(Site::SchedUnlock);

        let Job {
            id,
            mut engine,
            queue,
            pool,
            events,
        } = job;
        for event in events {
            engine.emit(event);
        }
        let pool: &StripePool = match &pool {
            Some(shard_pool) => shard_pool,
            None => StripePool::global(),
        };
        let mut steps = 0usize;
        let end = loop {
            match queue.try_pop() {
                Head::Frame((index, image)) => {
                    if let Err(failure) = step(id, &mut engine, pool, index, &image) {
                        break End::Failed(failure);
                    }
                    steps += 1;
                }
                Head::Empty => break End::Parked(engine),
                Head::Finished => break End::Finished(Box::new(engine.finish())),
            }
            if quantum.is_some_and(|q| steps.is_multiple_of(q)) {
                let outranked = shared.lock().outranked(id, &engine);
                perturb(Site::SchedUnlock);
                if let Some(event) = outranked {
                    engine.emit(event);
                    break End::Parked(engine);
                }
            }
        };

        if matches!(end, End::Failed(_)) {
            // refuse further ingress so producers unblock (rings the
            // scheduler: not under its lock)
            queue.close();
        }
        sched = shared.lock();
        match end {
            End::Parked(engine) => sched.park(id, engine),
            End::Finished(result) => sched.retire(id, Ok(*result)),
            End::Failed(failure) => sched.retire(id, Err(failure)),
        }
        // the cores given back can make work for sleepers as well
        if sched.idle > 0 {
            shared.work.notify_all();
        }
    }
}

/// One frame through the engine; a panic in it fails the stream, not the
/// worker.
fn step(
    id: usize,
    engine: &mut StreamEngine,
    pool: &StripePool,
    index: usize,
    image: &ImageU16,
) -> Result<(), StreamFailure> {
    let run = std::panic::AssertUnwindSafe(|| engine.step_on(pool, index, image));
    std::panic::catch_unwind(run).unwrap_or_else(|payload| {
        Err(StreamFailure {
            stream: id as StreamId,
            message: format!(
                "stream thread panicked: {}",
                panic_payload_message(payload.as_ref())
            ),
            frames_completed: 0,
        })
    })
}

impl Shared {
    /// The report, once every worker has been joined.
    pub(crate) fn into_report(self, obs: Option<&Observability>) -> ServiceReport {
        let Sched {
            slots,
            topology,
            mut results,
            mut failures,
            wall_ms,
            ..
        } = self
            .sched
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        results.sort_by_key(|r| r.stream);
        failures.sort_by_key(|f| f.stream);
        let total_frames: usize = results.iter().map(|r| r.trace.len()).sum();
        let aggregate_fps = if wall_ms > 0.0 {
            total_frames as f64 / (wall_ms / 1000.0)
        } else {
            0.0
        };
        let streams = slots
            .iter()
            .enumerate()
            .map(|(id, slot)| StreamServiceStats {
                stream: id as StreamId,
                shard: slot.last_shard,
                cores: slot.granted,
                demand: slot.demand,
                admission_wait_ms: slot.admission_wait_ms.unwrap_or(0.0),
                evictions: slot.evictions,
                migrations: slot.migrations,
                queue: slot.queue.stats(),
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
                metrics: obs.map(|o| o.snapshot()),
            },
            streams,
            shards,
        }
    }
}

impl Sched {
    /// Chooses the next stream to step: the ready one with the least
    /// predicted remaining work whose cores a shard can grant for the
    /// turn. A stream whose input is finished needs no grant.
    fn pick(&mut self) -> Option<Job> {
        #[cfg(test)]
        self.assert_grants_balance();
        // (rank key, stream, input finished) of every ready stream
        let mut ready: Vec<(f64, usize, bool)> = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.engine.is_none() {
                continue;
            }
            match slot.queue.head() {
                Head::Frame(()) => ready.push((slot.remaining_ms, i, false)),
                // finishing is free and needs no grant: first in line
                Head::Finished => ready.push((0.0, i, true)),
                Head::Empty => {}
            }
        }
        ready.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (i, placed) = ready.into_iter().find_map(|(_, i, finished)| {
            if finished {
                Some((i, None))
            } else {
                let shard = self.topology.place(self.slots[i].granted)?;
                Some((i, Some(shard)))
            }
        })?;
        self.announce_queued(i);
        Some(self.dispatch(i, placed))
    }

    /// Hands stream `i` to the calling worker, granting it `placed` for
    /// the turn.
    fn dispatch(&mut self, i: usize, placed: Option<usize>) -> Job {
        let slot = &mut self.slots[i];
        let engine = slot.engine.take().expect("ready streams are parked");
        let stream = i as StreamId;
        let frame = engine.frames_done();
        let mut events = Vec::new();
        if let Some(shard) = placed {
            self.topology.admit(shard, slot.granted);
            slot.shard = Some(shard);
            let previous = slot.last_shard.replace(shard);
            if let Some(from_shard) = previous.filter(|&prev| prev != shard) {
                slot.migrations += 1;
                events.push(FrameEvent::ShardRebalanced {
                    stream,
                    frame,
                    from_shard,
                    to_shard: shard,
                });
            }
            if slot.admission_wait_ms.is_none() {
                let queued_ms = self.t0.elapsed().as_secs_f64() * 1000.0;
                slot.admission_wait_ms = Some(queued_ms);
                events.push(FrameEvent::StreamAdmitted {
                    stream,
                    frame,
                    shard,
                    cores: slot.granted,
                    queued_ms,
                    remaining_ms: slot.remaining_ms,
                });
            }
        }
        Job {
            id: i,
            engine,
            queue: Arc::clone(&slot.queue),
            pool: placed.and_then(|shard| self.topology.pool(shard)),
            events,
        }
    }

    /// Streams still waiting for their first turn when a pick goes to
    /// stream `picked` announce themselves, once.
    fn announce_queued(&mut self, picked: usize) {
        let waiting: Vec<usize> = (0..self.slots.len())
            .filter(|&i| {
                let slot = &self.slots[i];
                i != picked && slot.engine.is_some() && slot.admission_wait_ms.is_none()
            })
            .collect();
        for &i in &waiting {
            let slot = &mut self.slots[i];
            if std::mem::replace(&mut slot.queued_evented, true) {
                continue;
            }
            if let Some(engine) = slot.engine.as_mut() {
                let frame = engine.frames_done();
                engine.emit(FrameEvent::StreamQueued {
                    stream: i as StreamId,
                    frame,
                    depth: waiting.len(),
                });
            }
        }
    }

    /// The quantum check of the stream a worker is stepping: the
    /// `StreamEvicted` it parks with, booked, or `None` to go on. It parks
    /// when a ready stream with strictly less predicted remaining work
    /// waits and either no worker is free to take it or no shard can grant
    /// its cores while this stream holds its own.
    fn outranked(&mut self, stepping: usize, engine: &StreamEngine) -> Option<FrameEvent> {
        let shard = self.slots[stepping].shard?;
        let mine = self.slots[stepping].rank_of(engine);
        let (by, shortest) = (self.slots.iter().enumerate())
            .filter(|(_, slot)| slot.engine.is_some() && slot.remaining_ms < mine)
            .filter(|(_, slot)| !matches!(slot.queue.head(), Head::Empty))
            .min_by(|a, b| a.1.remaining_ms.total_cmp(&b.1.remaining_ms))?;
        if self.idle > 0 && self.topology.place(shortest.granted).is_some() {
            return None;
        }
        self.slots[stepping].evictions += 1;
        Some(FrameEvent::StreamEvicted {
            stream: stepping as StreamId,
            frame: engine.frames_done(),
            shard,
            by: by as StreamId,
        })
    }

    /// Parks stream `id` between turns; its cores go back.
    fn park(&mut self, id: usize, engine: Box<StreamEngine>) {
        self.release(id);
        let slot = &mut self.slots[id];
        slot.remaining_ms = slot.rank_of(&engine);
        slot.engine = Some(engine);
    }

    /// A stream finished or failed: its cores go back, its completion
    /// notice out.
    fn retire(&mut self, id: usize, outcome: Result<StreamResult, StreamFailure>) {
        self.release(id);
        let (frames, failed) = match outcome {
            Ok(result) => {
                let frames = result.trace.len() + result.dropped_frames;
                self.results.push(result);
                (frames, false)
            }
            Err(failure) => {
                let frames = failure.frames_completed;
                self.failures.push(failure);
                (frames, true)
            }
        };
        let completion = StreamCompletion {
            stream: id as StreamId,
            frames,
            failed,
        };
        let _ = self.done_tx.send(completion);
        self.unfinished -= 1;
        if self.unfinished == 0 {
            self.wall_ms = self.t0.elapsed().as_secs_f64() * 1000.0;
        }
    }

    /// Ends stream `id`'s turn on its shard, if it had one.
    fn release(&mut self, id: usize) {
        let slot = &mut self.slots[id];
        if let Some(shard) = slot.shard.take() {
            self.topology.release(shard, slot.granted);
        }
    }

    #[cfg(test)]
    fn assert_grants_balance(&self) {
        let mut held = vec![0; self.topology.shard_count()];
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(shard) = slot.shard {
                assert!(slot.engine.is_none(), "parked stream {i} holds a grant");
                held[shard] += slot.granted;
            }
        }
        assert_eq!(
            held,
            self.topology.reserved(),
            "shard grants out of balance"
        );
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
            total_cores: 8,
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
        }
    }

    /// One slot, a two-frame quantum, queues that hold a whole
    /// stream.
    fn one_slot(eviction: EvictionPolicy, queue_capacity: usize) -> ServiceConfig {
        ServiceConfig {
            total_cores: 2,
            layout: ShardLayout::Single,
            queue_capacity,
            backpressure: BackpressurePolicy::Block,
            eviction,
            max_concurrent: 1,
        }
    }

    /// Streams of one model: their rank keys differ by length alone.
    fn specs_of(streams: &[(u64, usize)]) -> Vec<StreamSpec> {
        let model = trained_model();
        (streams.iter())
            .map(|&(seed, frames)| {
                StreamSpec::builder(seq(seed, frames), AppConfig::default(), model.clone()).build()
            })
            .collect()
    }

    fn frames_of(spec: &StreamSpec) -> Vec<xray::Frame> {
        xray::SequenceGenerator::new(spec.seq.clone()).collect()
    }

    /// Queues every stream's whole input, closes it, and serves the lot
    /// with one worker on the calling thread: the order of completion is
    /// the scheduler's choice alone.
    fn serve_prefilled(
        cfg: ServiceConfig,
        specs: Vec<StreamSpec>,
    ) -> (Vec<StreamId>, ServiceReport) {
        let inputs: Vec<Vec<xray::Frame>> = specs.iter().map(frames_of).collect();
        let (shared, queues, done) = ServiceCore::new(cfg).register(specs);
        for (queue, frames) in queues.iter().zip(inputs) {
            for frame in frames {
                queue.push(frame.index, frame.image);
            }
            queue.close();
        }
        worker(&shared);
        let order = done.try_iter().map(|c| c.stream).collect();
        let shared = Arc::into_inner(shared).expect("queues hold the scheduler weakly");
        (order, shared.into_report(None))
    }

    /// The quantum yield, on the calling thread: a long stream one quantum
    /// in parks for a shorter one that arrived behind it, gives its cores
    /// back, and the next pick goes to the short stream.
    #[test]
    fn time_slice_parks_a_long_stream_for_a_shorter_one() {
        let specs = specs_of(&[(204, 16), (205, 4)]);
        let (long, short) = (frames_of(&specs[0]), frames_of(&specs[1]));
        let cfg = one_slot(EvictionPolicy::TimeSlice { frames: 2 }, 16);
        let (shared, queues, _done) = ServiceCore::new(cfg).register(specs);
        // (pushes ring the scheduler: never under its lock)
        for frame in long {
            queues[0].push(frame.index, frame.image);
        }
        let mut job = shared.lock().pick().expect("the long stream is ready");
        assert_eq!(job.id, 0);
        for _ in 0..2 {
            if let Head::Frame((index, image)) = job.queue.try_pop() {
                step(0, &mut job.engine, StripePool::global(), index, &image).unwrap();
            }
        }
        for frame in short {
            queues[1].push(frame.index, frame.image);
        }
        let mut sched = shared.lock();
        let event = sched.outranked(0, &job.engine);
        assert!(
            matches!(
                event,
                Some(FrameEvent::StreamEvicted {
                    stream: 0,
                    by: 1,
                    frame: 2,
                    ..
                })
            ),
            "{event:?}"
        );
        assert_eq!(sched.slots[0].evictions, 1);
        sched.park(0, job.engine);
        assert_eq!(sched.topology.reserved(), [0]);
        let next = sched.pick().expect("the short stream is ready");
        assert_eq!(next.id, 1);
    }

    #[test]
    fn equal_length_batch_completes_in_stream_order_without_evictions() {
        let specs = specs_of(&[(210, 4), (211, 4), (212, 4), (213, 4)]);
        let (order, report) =
            serve_prefilled(one_slot(EvictionPolicy::TimeSlice { frames: 2 }, 4), specs);
        assert!(report.session.is_clean(), "{:?}", report.session.failures);
        assert_eq!(order, [0, 1, 2, 3]);
        for s in &report.streams {
            assert_eq!((s.evictions, s.migrations), (0, 0), "stream {}", s.stream);
        }
    }

    #[test]
    fn mixed_lengths_complete_shortest_first() {
        let specs = || specs_of(&[(220, 4), (221, 12), (222, 8)]);
        for eviction in [
            EvictionPolicy::TimeSlice { frames: 2 },
            EvictionPolicy::None,
        ] {
            let (order, report) = serve_prefilled(one_slot(eviction, 12), specs());
            assert!(report.session.is_clean(), "{:?}", report.session.failures);
            assert_eq!(order, [0, 2, 1], "{eviction:?}");
            // nobody shorter ever waited behind a stepping stream
            assert!(report.streams.iter().all(|s| s.evictions == 0));
        }
    }

    /// One producer feeding two streams round-robin into queues shorter
    /// than a time slice: it blocks on one stream's full queue while the
    /// other has run dry. The dry stream must not keep the only slot under
    /// either policy (when grants outlived a turn, it kept the slot under
    /// `EvictionPolicy::None` and the tier deadlocked).
    #[test]
    fn blocking_round_robin_producer_completes_on_one_slot() {
        for eviction in [
            EvictionPolicy::TimeSlice { frames: 4 },
            EvictionPolicy::None,
        ] {
            let specs = specs_of(&[(230, 8), (231, 8)]);
            let inputs: Vec<Vec<xray::Frame>> = specs.iter().map(frames_of).collect();
            let handle = ServiceCore::new(one_slot(eviction, 2)).spawn(specs);
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let mut inputs: Vec<_> = inputs.into_iter().map(Vec::into_iter).collect();
                for _ in 0..8 {
                    for (id, frames) in inputs.iter_mut().enumerate() {
                        let frame = frames.next().expect("eight frames each");
                        handle.submit(id as StreamId, frame.index, frame.image);
                    }
                }
                let _ = tx.send(handle.finish());
            });
            let report = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{eviction:?}: the tier deadlocked"));
            assert!(report.session.is_clean(), "{:?}", report.session.failures);
            assert_eq!(report.session.total_frames, 16, "{eviction:?}");
        }
    }

    /// The figure admission works from is made before the first frame and
    /// can be far below what the frames then plan at. A stream must not
    /// look longer for having started: equal streams would pre-empt each
    /// other.
    #[test]
    fn finishing_frames_never_raises_the_rank_key() {
        let specs = specs_of(&[(260, 6)]);
        let frames = frames_of(&specs[0]);
        let cfg = one_slot(EvictionPolicy::TimeSlice { frames: 2 }, 6);
        let (shared, queues, _done) = ServiceCore::new(cfg).register(specs);
        for frame in frames.into_iter().take(2) {
            queues[0].push(frame.index, frame.image);
        }
        let mut sched = shared.lock();
        // as if the blind estimate had been a hundredth of the real cost
        let blind = sched.slots[0].remaining_ms / 100.0;
        sched.slots[0].remaining_ms = blind;
        let mut job = sched.pick().expect("the stream is ready");
        while let Head::Frame((index, image)) = job.queue.try_pop() {
            step(0, &mut job.engine, StripePool::global(), index, &image).unwrap();
        }
        assert!(job.engine.remaining_ms(0.0) > blind, "vacuous: {blind}");
        sched.park(0, job.engine);
        assert_eq!(sched.slots[0].remaining_ms, blind);
    }

    /// A stream that wants a whole two-core shard, behind two one-core
    /// streams that have run dry: parked, they hold no cores, so it is
    /// placed at once.
    #[test]
    fn parked_streams_hold_no_grant() {
        let model = trained_model();
        let narrow = |seed| StreamSpec::builder(seq(seed, 4), AppConfig::default(), model.clone());
        let specs = vec![
            narrow(240).build(),
            narrow(241).build(),
            narrow(242).budget(LatencyBudget::new(0.001, 0.0)).build(),
        ];
        let inputs: Vec<Vec<xray::Frame>> = specs.iter().map(frames_of).collect();
        let cfg = ServiceConfig {
            max_concurrent: 3,
            ..one_slot(EvictionPolicy::TimeSlice { frames: 2 }, 4)
        };
        let (shared, queues, _done) = ServiceCore::new(cfg).register(specs);
        // (pushes ring the scheduler: never under its lock)
        for i in 0..2 {
            queues[i].push(0, inputs[i][0].image.clone());
        }
        let mut sched = shared.lock();
        assert_eq!(
            sched.slots[2].granted, 2,
            "the tight budget wants the shard"
        );
        // both narrow streams take a core for a turn, consume their only
        // frame, park
        let jobs: Vec<Job> = (0..2)
            .map(|_| sched.pick().expect("a ready stream and a free core"))
            .collect();
        assert_eq!(sched.topology.reserved(), [2]);
        for job in jobs {
            assert!(matches!(job.queue.try_pop(), Head::Frame(_)));
            sched.park(job.id, job.engine);
        }
        assert_eq!(sched.topology.reserved(), [0]);
        drop(sched);
        queues[2].push(0, inputs[2][0].image.clone());
        let mut sched = shared.lock();
        let job = sched.pick().expect("the wide stream fits at once");
        assert_eq!(job.id, 2);
        assert_eq!(sched.topology.reserved(), [2]);
        assert!(sched.slots.iter().all(|slot| slot.evictions == 0));
        sched.assert_grants_balance();
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
    fn spawn_reports_its_worker_count() {
        let obs = Observability::new();
        let cfg = ServiceConfig {
            max_concurrent: 1,
            ..Default::default()
        };
        let report = ServiceCore::new(cfg)
            .with_observability(obs)
            .run_batch(specs_of(&[(250, 2)]));
        assert!(report.session.is_clean());
        let snap = report.session.metrics.as_ref().expect("metrics snapshot");
        let workers = (snap.gauges.iter()).find(|g| g.name == "service_workers");
        assert_eq!(workers.map(|g| g.value), Some(1.0));
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
        assert_eq!(
            snap.counter_total("streams_admitted"),
            2,
            "every stream is admitted once, at its first turn"
        );
        assert!(
            snap.counter_total("streams_queued") >= 1,
            "with one worker someone must wait for a first turn"
        );
    }
}
