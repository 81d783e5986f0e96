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
//!              place fits              queue closed and drained
//!   Pending ───────────────▶ Resident ──────────────────────────▶ Finished
//!      ▲    (StreamAdmitted)  parked ⇄ stepping ───step failed──▶ Failed
//!      │                         │
//!      └──── StreamEvicted ◀─────┘  TimeSlice only: a waiting stream that
//!                                   outranks it cannot be placed otherwise
//! ```
//!
//! A free worker takes the *ready* stream — engine parked, and a frame
//! queued or the queue closed and drained — with the least predicted
//! remaining work (frames still owed × the predicted per-frame cost at
//! the stream's [`AdmissionPolicy`](super::AdmissionPolicy) point:
//! [`StreamDemand::predicted_ms`] before its first frame, the last
//! frame's planned cost after; finishing a frame never raises it), ties
//! to the lower id. It places the stream on a shard if it holds no grant
//! (best fit against per-shard free cores; landing on another shard than
//! last time emits [`FrameEvent::ShardRebalanced`]), steps it outside the
//! lock while frames are queued, and parks it again. A stream with an
//! empty open queue holds its grant but never a worker.
//!
//! Pre-emption exists only under [`EvictionPolicy::TimeSlice`], whose
//! `frames` is the quantum at which a stepping stream looks up: it goes on
//! unless a ready stream with strictly less remaining work is waiting and
//! no worker is free for it (or no grant: then the stepping stream parks
//! so that it can be evicted). A grant changes hands only in a pick, from
//! a parked resident to the ready stream the pick could not place: from
//! one with nothing queued to anyone, from one with more remaining work to
//! a shorter stream. The evicting worker checkpoints the victim (model
//! snapshot → restore → snapshot, byte-compared) before it steps. So an
//! equal-length batch runs to completion in stream order without a single
//! eviction, and a stream is overtaken only by streams with less predicted
//! work left — in a closed batch its wait is bounded by the work shorter
//! than it. Under [`EvictionPolicy::None`] a resident keeps its grant
//! until it is done: a producer that blocks on one stream's full queue
//! while feeding several then needs `max_concurrent` ≥ its fan-out.
//!
//! This is the crate's only multi-stream scheduler: every stream it runs
//! goes through [`StreamEngine::step_on`], so pixels, plans and ledgers do
//! not depend on the order it chose.

use crate::session::{
    panic_payload_message, SessionReport, StreamFailure, StreamResult, StreamSpec,
};
use imaging::image::ImageU16;
use imaging::parallel::StripePool;
use platform::arch::ArchModel;
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
    /// The shared modelled-core budget shards are carved from.
    pub total_cores: usize,
    /// How the budget is partitioned into pool shards.
    pub layout: ShardLayout,
    /// Per-stream ingress queue capacity, frames.
    pub queue_capacity: usize,
    /// What a producer hitting a full ingress queue experiences.
    pub backpressure: BackpressurePolicy,
    /// Whether (and when) resident streams yield to waiting ones.
    pub eviction: EvictionPolicy,
    /// Cap on streams holding a shard grant at once (further streams wait
    /// for admission), and — capped by the host's parallelism — the number
    /// of workers that step them.
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
    /// Wait from registration to the first shard grant, ms. Streams are
    /// granted in rank order as workers come free, so in a batch this is
    /// the work that ran ahead of the stream, not a sign of overload.
    pub admission_wait_ms: f64,
    /// Times the stream gave up its grant to a stream that could not be
    /// placed otherwise (never under [`EvictionPolicy::None`], and never
    /// in a batch of equally long streams).
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

/// The sharded, prediction-ranked service scheduler.
pub struct ServiceCore {
    cfg: ServiceConfig,
    obs: Option<Observability>,
}

/// One registered stream in the scheduler state.
struct Slot {
    queue: Arc<FrameQueue>,
    /// The parked engine (boxed once: it changes hands at every turn);
    /// `None` while a worker holds it (stepping it, or checkpointing its
    /// eviction) and once the stream is done.
    engine: Option<Box<StreamEngine>>,
    demand: StreamDemand,
    granted: usize,
    /// The rank key ([`Slot::rank_of`]), refreshed whenever the engine is
    /// parked.
    remaining_ms: f64,
    /// The grant held while Resident.
    shard: Option<usize>,
    last_shard: Option<usize>,
    queued_since: Instant,
    admission_wait_ms: Option<f64>,
    evictions: usize,
    migrations: usize,
    snapshot_ok: bool,
    queued_evented: bool,
}

impl Slot {
    /// The stream's rank key with its engine in this state: the predicted
    /// remaining work, but never more than it was. The per-frame cost is
    /// re-predicted every frame and the figure admission worked from can
    /// be well below it (it is made blind, before the first frame);
    /// without the clamp a stream would look longer after its first frames
    /// than an equal one that has not started, and be evicted for it.
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
    /// Residents this pick evicted for the stream, yet to be checkpointed.
    evicted: Vec<Evicted>,
}

struct Evicted {
    id: usize,
    engine: Box<StreamEngine>,
    event: FrameEvent,
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
    max_resident: usize,
    /// Frames between pre-emption checks (`None`: never pre-empt).
    quantum: Option<usize>,
    /// Streams holding a grant.
    resident: usize,
    /// Workers asleep on the condvar.
    idle: usize,
    /// Streams neither finished nor failed.
    unfinished: usize,
    /// A worker panicked: the others stop, `finish` re-raises.
    aborted: bool,
    results: Vec<StreamResult>,
    failures: Vec<StreamFailure>,
    done_tx: mpsc::Sender<StreamCompletion>,
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
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = self.cfg.max_concurrent.clamp(1, parallelism);
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
                        queued_since: Instant::now(),
                        admission_wait_ms: None,
                        evictions: 0,
                        migrations: 0,
                        snapshot_ok: true,
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
                    max_resident: cfg.max_concurrent.max(1),
                    quantum: match cfg.eviction {
                        EvictionPolicy::TimeSlice { frames } => Some(frames.max(1)),
                        EvictionPolicy::None => None,
                    },
                    resident: 0,
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
            evicted,
        } = job;
        for evicted in evicted {
            shared.checkpoint(evicted);
        }
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
                if outranked {
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
        // a park or a released grant can make work for sleepers as well
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
    /// The eviction checkpoint, on the evicting worker and outside the
    /// lock: the parked model must survive a serialize → restore round
    /// trip byte-identically. Then the victim waits for admission again.
    fn checkpoint(&self, evicted: Evicted) {
        let Evicted {
            id,
            mut engine,
            event,
        } = evicted;
        engine.emit(event);
        let snapshot = engine.model_snapshot();
        let restored = engine.restore_model(&snapshot);
        let intact = restored && engine.model_snapshot() == snapshot;
        let mut sched = self.lock();
        sched.slots[id].snapshot_ok &= intact;
        sched.park(id, engine);
        if sched.idle > 0 {
            self.work.notify_all();
        }
        drop(sched);
        perturb(Site::SchedUnlock);
    }

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
                snapshot_roundtrip_ok: slot.snapshot_ok,
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
    /// The shard a grant of `cores` would go to with `resident` streams
    /// holding one.
    fn fits(&self, resident: usize, cores: usize) -> Option<usize> {
        (resident < self.max_resident)
            .then(|| self.topology.place(cores))
            .flatten()
    }

    /// The shard a grant of `cores` would go to right now.
    fn placement(&self, cores: usize) -> Option<usize> {
        self.fits(self.resident, cores)
    }

    /// Chooses the next stream to step: the ready one with the least
    /// predicted remaining work that holds a grant or can be given one —
    /// under `TimeSlice`, also at the expense of parked residents (see
    /// [`make_room`](Self::make_room)). Streams the pick leaves without a
    /// grant they could not have had announce themselves queued.
    fn pick(&mut self) -> Option<Job> {
        #[cfg(test)]
        self.assert_grants_balance();
        // (rank key, stream, input finished) of every ready stream
        let mut ready: Vec<(f64, usize, bool)> = Vec::new();
        // parked with an empty, open queue
        let mut starved = vec![false; self.slots.len()];
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.engine.is_none() {
                continue;
            }
            match slot.queue.head() {
                Head::Frame(()) => ready.push((slot.remaining_ms, i, false)),
                // finishing is free and needs no grant: first in line
                Head::Finished => ready.push((0.0, i, true)),
                Head::Empty => starved[i] = true,
            }
        }
        ready.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut job = None;
        for (remaining_ms, i, finished) in ready {
            let cores = self.slots[i].granted;
            let mut evicted = Vec::new();
            let placed = if finished || self.slots[i].shard.is_some() {
                None
            } else if let Some(shard) = self.placement(cores) {
                Some(shard)
            } else if let Some((victims, shard)) = self.make_room(remaining_ms, cores, &starved) {
                evicted.extend(victims.into_iter().map(|v| self.evict(v, i)));
                Some(shard)
            } else {
                continue;
            };
            job = Some(self.dispatch(i, placed, evicted));
            break;
        }
        self.announce_queued();
        job
    }

    /// Under `TimeSlice`, releases the grants of as few parked residents
    /// as it takes to place a stream of `remaining_ms` predicted work and
    /// `cores` demand: a resident with nothing queued yields to anyone, one
    /// with work queued only to a strictly shorter stream. Starved
    /// residents go first, then those with the most work left. Returns the
    /// victims and the shard that now fits, or releases nothing.
    fn make_room(
        &mut self,
        remaining_ms: f64,
        cores: usize,
        starved: &[bool],
    ) -> Option<(Vec<usize>, usize)> {
        self.quantum?;
        let mut victims: Vec<usize> = (0..self.slots.len())
            .filter(|&v| {
                let slot = &self.slots[v];
                slot.shard.is_some()
                    && slot.engine.is_some()
                    && (starved[v] || slot.remaining_ms > remaining_ms)
            })
            .collect();
        victims.sort_by(|&a, &b| {
            let (a_ms, b_ms) = (self.slots[a].remaining_ms, self.slots[b].remaining_ms);
            (starved[b].cmp(&starved[a]))
                .then(b_ms.total_cmp(&a_ms))
                .then(b.cmp(&a))
        });
        // release in that order until the stream fits ...
        let enough = (1..=victims.len()).find(|&n| {
            self.regrant(victims[n - 1], false);
            self.fits(self.resident - n, cores).is_some()
        });
        let Some(enough) = enough else {
            victims.iter().for_each(|&v| self.regrant(v, true));
            return None;
        };
        victims.truncate(enough);
        // ... then hand back every grant the fit can do without
        for k in (0..victims.len()).rev() {
            self.regrant(victims[k], true);
            if self
                .fits(self.resident - (victims.len() - 1), cores)
                .is_some()
            {
                victims.remove(k);
            } else {
                self.regrant(victims[k], false);
            }
        }
        let shard = self.fits(self.resident - victims.len(), cores)?;
        Some((victims, shard))
    }

    /// Returns (`back`) or takes away the shard reservation of resident
    /// `v`, leaving its slot untouched.
    fn regrant(&mut self, v: usize, back: bool) {
        let slot = &self.slots[v];
        let shard = slot.shard.expect("residents hold a grant");
        if back {
            self.topology.admit(shard, slot.granted);
        } else {
            self.topology.release(shard, slot.granted);
        }
    }

    /// Books the eviction of `victim` (its grant is already released) in
    /// favour of stream `by`; the caller's worker checkpoints the engine.
    fn evict(&mut self, victim: usize, by: usize) -> Evicted {
        let slot = &mut self.slots[victim];
        let engine = slot.engine.take().expect("victims are parked");
        let shard = slot.shard.take().expect("victims hold a grant");
        slot.evictions += 1;
        slot.queued_since = Instant::now();
        self.resident -= 1;
        Evicted {
            id: victim,
            event: FrameEvent::StreamEvicted {
                stream: victim as StreamId,
                frame: engine.frames_done(),
                shard,
                by: by as StreamId,
            },
            engine,
        }
    }

    /// Hands stream `i` to the calling worker, granting it `placed` first
    /// if the pick placed it.
    fn dispatch(&mut self, i: usize, placed: Option<usize>, evicted: Vec<Evicted>) -> Job {
        let slot = &mut self.slots[i];
        let engine = slot.engine.take().expect("ready streams are parked");
        let stream = i as StreamId;
        let frame = engine.frames_done();
        let mut events = Vec::new();
        if let Some(shard) = placed {
            self.topology.admit(shard, slot.granted);
            self.resident += 1;
            let queued_ms = slot.queued_since.elapsed().as_secs_f64() * 1000.0;
            slot.admission_wait_ms.get_or_insert(queued_ms);
            if let Some(from_shard) = slot.last_shard.filter(|&prev| prev != shard) {
                slot.migrations += 1;
                events.push(FrameEvent::ShardRebalanced {
                    stream,
                    frame,
                    from_shard,
                    to_shard: shard,
                });
            }
            events.push(FrameEvent::StreamAdmitted {
                stream,
                frame,
                shard,
                cores: slot.granted,
                queued_ms,
                remaining_ms: slot.remaining_ms,
            });
            slot.shard = Some(shard);
            slot.last_shard = Some(shard);
            slot.queued_evented = false;
        }
        Job {
            id: i,
            engine,
            queue: Arc::clone(&slot.queue),
            pool: slot.shard.and_then(|shard| self.topology.pool(shard)),
            events,
            evicted,
        }
    }

    /// Parked streams without a grant that could not be given one right
    /// now (concurrency cap, or no shard with headroom) announce
    /// themselves, once per wait.
    fn announce_queued(&mut self) {
        let waiting: Vec<usize> = (0..self.slots.len())
            .filter(|&i| {
                let slot = &self.slots[i];
                slot.engine.is_some()
                    && slot.shard.is_none()
                    && self.placement(slot.granted).is_none()
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

    /// The quantum check of the stream a worker is stepping: true when it
    /// should park. That is when a ready stream with strictly less
    /// predicted remaining work waits and either no worker is free to take
    /// it, or it needs a grant it cannot get — parked, this stream is the
    /// resident the next pick can evict for it.
    fn outranked(&self, stepping: usize, engine: &StreamEngine) -> bool {
        let mine = self.slots[stepping].rank_of(engine);
        let shortest = (self.slots.iter())
            .filter(|slot| slot.engine.is_some() && slot.remaining_ms < mine)
            .filter(|slot| !matches!(slot.queue.head(), Head::Empty))
            .min_by(|a, b| a.remaining_ms.total_cmp(&b.remaining_ms));
        shortest.is_some_and(|slot| {
            self.idle == 0 || (slot.shard.is_none() && self.placement(slot.granted).is_none())
        })
    }

    fn park(&mut self, id: usize, engine: Box<StreamEngine>) {
        let slot = &mut self.slots[id];
        slot.remaining_ms = slot.rank_of(&engine);
        slot.engine = Some(engine);
    }

    /// A stream finished or failed: its grant goes back, its completion
    /// notice out.
    fn retire(&mut self, id: usize, outcome: Result<StreamResult, StreamFailure>) {
        let slot = &mut self.slots[id];
        if let Some(shard) = slot.shard.take() {
            self.topology.release(shard, slot.granted);
            self.resident -= 1;
        }
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

    #[cfg(test)]
    fn assert_grants_balance(&self) {
        let mut held = vec![0; self.topology.shard_count()];
        for slot in &self.slots {
            if let Some(shard) = slot.shard {
                held[shard] += slot.granted;
            }
        }
        assert_eq!(
            held,
            self.topology.reserved(),
            "shard grants out of balance"
        );
        let resident = self.slots.iter().filter(|s| s.shard.is_some()).count();
        assert_eq!(resident, self.resident, "resident count out of balance");
        assert!(resident <= self.max_resident, "concurrency cap exceeded");
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

    /// One modelled slot, a two-frame quantum, queues that hold a whole
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

    #[test]
    fn time_slice_evicts_a_long_stream_for_a_shorter_one() {
        let obs = Observability::new();
        let specs = specs_of(&[(204, 16), (205, 4)]);
        let (long, short) = (frames_of(&specs[0]), frames_of(&specs[1]));
        // queues shorter than the streams: the producer below is still
        // blocked on the long stream's input when the short one runs dry
        let handle = ServiceCore::new(one_slot(EvictionPolicy::TimeSlice { frames: 2 }, 2))
            .with_observability(obs)
            .spawn(specs);
        // the long stream's first quantum arrives alone and takes the slot
        let mut long = long.into_iter();
        for frame in long.by_ref().take(2) {
            handle.submit(0, frame.index, frame.image);
        }
        while handle.metrics().unwrap().counter_total("streams_admitted") == 0 {
            std::thread::yield_now();
        }
        // the short one arrives behind it and outranks it: whether the long
        // stream is stepping (evicted at its next quantum) or has run dry
        // (evicted at once), the slot changes hands — and back, when the
        // short stream has run dry with its queue still open
        for frame in short {
            handle.submit(1, frame.index, frame.image);
        }
        for frame in long {
            handle.submit(0, frame.index, frame.image);
        }
        let report = handle.finish();
        assert!(report.session.is_clean(), "{:?}", report.session.failures);
        assert_eq!(report.session.total_frames, 20);
        for s in &report.streams {
            assert!(s.evictions > 0, "stream {} never yielded", s.stream);
            assert!(
                s.snapshot_roundtrip_ok,
                "stream {} lost model state",
                s.stream
            );
        }
        let lens: Vec<usize> = (report.session.streams.iter())
            .map(|r| r.trace.len())
            .collect();
        assert_eq!(lens, [16, 4]);
        let snap = report.session.metrics.as_ref().expect("metrics snapshot");
        assert_eq!(
            snap.counter("streams_evicted", Labels::stream(0)) as usize,
            report.streams[0].evictions
        );
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
            // nobody shorter ever waited behind a resident: no eviction
            assert!(report.streams.iter().all(|s| s.evictions == 0));
        }
    }

    /// One producer feeding two streams round-robin into queues shorter
    /// than a time slice: it blocks on the second stream's full queue while
    /// the first has run dry. The dry stream must not keep the only slot
    /// (before the fixed worker set it kept a thread blocked in `pop`, one
    /// frame short of its slice, and the tier deadlocked).
    #[test]
    fn blocking_round_robin_producer_completes_on_one_slot() {
        let specs = specs_of(&[(230, 8), (231, 8)]);
        let inputs: Vec<Vec<xray::Frame>> = specs.iter().map(frames_of).collect();
        let handle =
            ServiceCore::new(one_slot(EvictionPolicy::TimeSlice { frames: 4 }, 2)).spawn(specs);
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
            .expect("the tier deadlocked under a blocking round-robin producer");
        assert!(report.session.is_clean(), "{:?}", report.session.failures);
        assert_eq!(report.session.total_frames, 16);
        assert!(report.streams.iter().all(|s| s.snapshot_roundtrip_ok));
        assert!(
            report.streams.iter().map(|s| s.evictions).sum::<usize>() > 0,
            "a dry resident must have yielded the slot"
        );
    }

    /// The figure admission works from is made before the first frame and
    /// can be far below what the frames then plan at. A stream must not
    /// look longer for having started: equal streams would evict each other.
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
    /// residents that have run dry: one eviction does not make room, two
    /// do, and both are booked.
    #[test]
    fn a_wide_stream_evicts_as_many_dry_residents_as_it_needs() {
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
        // both narrow streams take a core, consume their only frame, park
        for i in 0..2 {
            let job = sched.pick().expect("a ready stream and a free core");
            assert_eq!((job.id, job.evicted.len()), (i, 0));
            assert!(matches!(job.queue.try_pop(), Head::Frame(_)));
            sched.park(i, job.engine);
        }
        assert_eq!(sched.topology.reserved(), [2]);
        drop(sched);
        queues[2].push(0, inputs[2][0].image.clone());
        let mut sched = shared.lock();
        let job = sched.pick().expect("the dry residents make room");
        assert_eq!(job.id, 2);
        let mut victims: Vec<usize> = job.evicted.iter().map(|e| e.id).collect();
        victims.sort_unstable();
        assert_eq!(victims, [0, 1]);
        assert_eq!(sched.topology.reserved(), [2]);
        assert_eq!(sched.resident, 1);
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
