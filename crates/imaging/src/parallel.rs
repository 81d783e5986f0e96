//! The persistent worker pool that data-parallel (striped) stages run on.
//!
//! The RDG tasks have a streaming nature and can be data-partitioned
//! (Section 6): the ROI is split into horizontal row bands and
//! [`crate::ridge::rdg_banded`] runs one job per band on this pool, as does
//! the response sweep GW EXT needs
//! ([`crate::ridge::ridge_response_banded`]). Feature-level tasks (CPLS
//! SEL, GW EXT's path search) are partitioned functionally instead,
//! because they operate on extracted features rather than image data.
//!
//! Earlier revisions spawned fresh `std::thread::scope` workers for every
//! stripe of every frame; at 30 Hz that is hundreds of thread spawns per
//! second on the hottest path the paper models. [`StripePool`] keeps a set
//! of long-lived workers fed over crossbeam channels, so a whole sequence
//! run creates threads exactly once and per-frame dispatch is two channel
//! hops per stripe.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use crate::image::{ImageU16, Roi};
use crate::ridge::{rdg_banded, RdgBuffers, RdgConfig, RdgOutput};

/// A lifetime-erased unit of work executed on a pool worker.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Why a pooled batch did not complete cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// One or more jobs panicked; the collected panic messages. The
    /// workers survive and the pool stays usable.
    JobPanicked(Vec<String>),
    /// A job could not be submitted, or its completion signal never
    /// arrived (worker channel torn down mid-batch).
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobPanicked(msgs) => {
                write!(f, "stripe worker panicked: {}", msgs.join("; "))
            }
            PoolError::Disconnected => write!(f, "stripe pool channel disconnected"),
        }
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// One submitted job. It is taken exactly once: by the worker it was sent
/// to, or by the dispatching thread when that worker has not started it.
type Slot = Arc<Mutex<Option<Task>>>;

struct Item {
    job: Slot,
    done: Sender<bool>,
}

/// A persistent pool of stripe workers.
///
/// Workers are spawned once (per pool) and live until the pool is dropped;
/// jobs are round-robined over per-worker channels. The dispatching thread
/// does not idle: it runs, last first, every job whose worker has not
/// started it yet, so a batch never waits for a worker the host has not
/// scheduled, and a pool of no workers runs every job on the caller, one
/// after another. [`StripePool::run`] accepts non-`'static` closures: it
/// returns only once every job has run, so borrows held by the jobs cannot
/// outlive the call (the same guarantee `std::thread::scope` gives,
/// without the per-call thread spawn/join).
pub struct StripePool {
    workers: Vec<Sender<Item>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    panics: Arc<Mutex<Vec<String>>>,
}

impl StripePool {
    /// Spawns a pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        let panics = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = unbounded::<Item>();
            let panics = Arc::clone(&panics);
            let handle = std::thread::Builder::new()
                .name(format!("stripe-worker-{i}"))
                .spawn(move || {
                    while let Ok(Item { job, done }) = rx.recv() {
                        // taken by the dispatcher: nobody waits for it here
                        let Some(job) = job.lock().take() else {
                            continue;
                        };
                        let result = catch_unwind(AssertUnwindSafe(job));
                        let panicked = result.is_err();
                        if let Err(payload) = result {
                            panics.lock().push(panic_message(payload.as_ref()));
                        }
                        // The dispatcher may have given up (itself panicked);
                        // a dead done-channel is not an error for the worker.
                        let _ = done.send(panicked);
                    }
                })
                .expect("spawn stripe worker");
            workers.push(tx);
            handles.push(handle);
        }
        Self {
            workers,
            handles,
            panics,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Number of worker threads still running. A healthy pool keeps this
    /// equal to [`StripePool::threads`] for its whole life — job panics
    /// are caught inside the worker loop and must never kill a thread
    /// (asserted by the fault-recovery tests).
    pub fn live_threads(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// The process-wide shared pool, sized to the available hardware
    /// parallelism and spawned on first use.
    pub fn global() -> &'static StripePool {
        static GLOBAL: OnceLock<StripePool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            StripePool::new(threads)
        })
    }

    /// Runs `jobs[i]` on worker `i % threads`, blocking until all complete.
    ///
    /// If any job panics, the panic message is re-raised here after the
    /// whole batch has drained (workers survive and stay reusable).
    pub fn run<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if let Err(e) = self.try_run(jobs) {
            panic!("{e}");
        }
    }

    /// Non-panicking [`StripePool::run`]: a job panic (or a torn-down
    /// worker channel) is returned as a [`PoolError`] after the whole
    /// batch has drained, so the caller — not the pool — decides whether
    /// the failure unwinds. The recovery runtime's retry/fallback
    /// policies are built on this.
    pub fn try_run<'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) -> Result<(), PoolError> {
        if jobs.is_empty() {
            return Ok(());
        }
        let (done_tx, done_rx) = unbounded::<bool>();
        let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
        let mut disconnected = false;
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: every job placed in a slot is taken exactly once, by
            // a worker or by the loop below, and this call returns only
            // after both: the loop below runs every job left in a slot, and
            // the one after it blocks until every job a worker took has
            // signalled completion (the done sender is dropped only after
            // the job ran). So all 'scope borrows captured by a job strictly
            // outlive its execution. A job whose send fails is dropped
            // unexecuted right here, releasing its borrows immediately.
            let job: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(job) };
            let slot: Slot = Arc::new(Mutex::new(Some(job)));
            if !self.workers.is_empty() {
                let item = Item {
                    job: Arc::clone(&slot),
                    done: done_tx.clone(),
                };
                if self.workers[i % self.workers.len()].send(item).is_err() {
                    disconnected = true;
                    break;
                }
            }
            slots.push(slot);
        }
        drop(done_tx);
        let mut panicked = false;
        let mut on_workers = slots.len();
        for slot in slots.iter().rev() {
            let Some(job) = slot.lock().take() else {
                continue;
            };
            on_workers -= 1;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                self.panics.lock().push(panic_message(payload.as_ref()));
                panicked = true;
            }
        }
        for _ in 0..on_workers {
            match done_rx.recv() {
                Ok(flag) => panicked |= flag,
                // A worker died without running the job (only possible if
                // its thread was torn down).
                Err(_) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if panicked {
            let msgs = std::mem::take(&mut *self.panics.lock());
            return Err(PoolError::JobPanicked(msgs));
        }
        if disconnected {
            return Err(PoolError::Disconnected);
        }
        Ok(())
    }
}

impl Drop for StripePool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        self.workers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Deterministic faults to inject into one [`rdg_banded`] call (testing
/// only; the nominal path passes the default, which injects nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripeFault {
    /// Panic this many band jobs at job start. The panic fires in the
    /// first banded dispatch, before the job touches its scratch or its
    /// rows, and a retry rewrites every row anyway, so a clean retry is
    /// bit-identical to an unfaulted run.
    pub panic_jobs: usize,
    /// Fail the dispatch with a transient [`PoolError::Disconnected`]
    /// before any job is submitted.
    pub channel_error: bool,
}

/// The buffer argument of [`rdg_parallel_pooled`]: an [`RdgBuffers`] sized
/// on first use.
#[doc(hidden)]
#[derive(Default)]
pub struct ParallelRdgBuffers(Option<RdgBuffers>);

#[doc(hidden)]
impl ParallelRdgBuffers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn recycle(&mut self, out: RdgOutput) {
        if let Some(bufs) = &mut self.0 {
            bufs.recycle(out);
        }
    }
}

/// [`rdg_banded`] under the signature `examples/benchmark/src/ladder.rs`
/// imports. That file is frozen between benchmark re-issues; this adapter
/// and [`ParallelRdgBuffers`] go when it is next re-issued.
#[doc(hidden)]
pub fn rdg_parallel_pooled(
    pool: &StripePool,
    src: &ImageU16,
    roi: Roi,
    cfg: &RdgConfig,
    stripes: usize,
    bufs: &mut ParallelRdgBuffers,
) -> RdgOutput {
    let (w, h) = src.dims();
    let bufs = match &mut bufs.0 {
        Some(b) if b.dims() == (w, h) => b,
        slot => slot.insert(RdgBuffers::new(w, h)),
    };
    rdg_banded(pool, src, roi, cfg, stripes, StripeFault::default(), bufs)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::ridge::rdg_roi;

    type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

    /// One job per slot, writing `value(i)` into slot `i`.
    fn slot_jobs<'a>(
        slots: &'a mut [usize],
        value: &'a (dyn Fn(usize) -> usize + Sync),
    ) -> Vec<Job<'a>> {
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = value(i)) as Job<'a>)
            .collect()
    }

    #[test]
    fn pool_reuses_threads_across_batches() {
        let pool = StripePool::new(2);
        for round in 0..50 {
            let mut slots = [0usize; 4];
            pool.run(slot_jobs(&mut slots, &|i| i + round));
            assert_eq!(slots, [round, round + 1, round + 2, round + 3]);
        }
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.live_threads(), 2);
    }

    #[test]
    fn pool_propagates_worker_panic_and_survives() {
        let pool = StripePool::new(2);
        let mut slots = [0usize; 4];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(slot_jobs(&mut slots, &|i| {
                if i == 2 {
                    panic!("boom in job {i}");
                }
                i
            }));
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // the pool stays usable after a job panic
        pool.run(slot_jobs(&mut slots, &|i| i + 10));
        assert_eq!(slots, [10, 11, 12, 13]);
    }

    #[test]
    fn try_run_reports_panics_without_unwinding() {
        let pool = StripePool::new(2);
        let mut results = [0usize; 4];
        let err = pool
            .try_run(slot_jobs(&mut results, &|i| {
                if i == 1 {
                    panic!("fault in job {i}");
                }
                i + 10
            }))
            .unwrap_err();
        match &err {
            PoolError::JobPanicked(msgs) => {
                assert_eq!(msgs.len(), 1);
                assert!(msgs[0].contains("fault in job 1"), "{msgs:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // the whole batch drained: every non-faulted job still ran
        assert_eq!(results, [10, 0, 12, 13]);
        // the pool remains fully usable with all threads alive
        assert_eq!(pool.live_threads(), 2);
        pool.try_run(slot_jobs(&mut results, &|i| i)).unwrap();
        assert_eq!(results, [0, 1, 2, 3]);
    }

    #[test]
    fn job_panics_never_kill_worker_threads() {
        let pool = StripePool::new(3);
        assert_eq!(pool.live_threads(), 3);
        for round in 0..10 {
            let jobs: Vec<Job<'_>> = (0..6)
                .map(|i| {
                    Box::new(move || {
                        if (i + round) % 2 == 0 {
                            panic!("round {round} job {i}");
                        }
                    }) as Job<'_>
                })
                .collect();
            assert!(pool.try_run(jobs).is_err());
            assert_eq!(pool.live_threads(), 3, "round {round} leaked a thread");
        }
    }

    #[test]
    fn pool_without_workers_runs_every_job_on_the_caller() {
        let pool = StripePool::new(0);
        assert_eq!(pool.threads(), 0);
        let caller = std::thread::current().id();
        let mut ran_on = [None; 3];
        let jobs: Vec<Job<'_>> = ran_on
            .iter_mut()
            .map(|slot| Box::new(move || *slot = Some(std::thread::current().id())) as Job<'_>)
            .collect();
        pool.run(jobs);
        assert_eq!(ran_on, [Some(caller); 3]);
    }

    #[test]
    fn pool_runs_borrowed_state_jobs() {
        // run() accepts non-'static closures that borrow caller state
        let pool = StripePool::new(3);
        let data: Vec<u64> = (0..64).collect();
        let mut sums = [0u64; 4];
        let chunks: Vec<&[u64]> = data.chunks(16).collect();
        let jobs: Vec<Job<'_>> = sums
            .iter_mut()
            .zip(chunks)
            .map(|(slot, chunk)| Box::new(move || *slot = chunk.iter().sum()) as Job<'_>)
            .collect();
        pool.run(jobs);
        assert_eq!(sums.iter().sum::<u64>(), (0..64).sum());
    }

    #[test]
    fn benchmark_adapter_sizes_itself_and_matches_serial() {
        let cfg = RdgConfig::default();
        let pool = StripePool::new(2);
        let mut par = ParallelRdgBuffers::new();
        for edge in [64usize, 48] {
            let src: ImageU16 = Image::from_fn(edge, edge, |x, y| {
                let d = (x as f32 - y as f32).abs() / 1.5;
                (2000.0 - 900.0 * (-d * d / 2.0).exp()) as u16
            });
            let serial = rdg_roi(&src, src.full_roi(), &cfg, &mut RdgBuffers::new(edge, edge));
            let out = rdg_parallel_pooled(&pool, &src, src.full_roi(), &cfg, 2, &mut par);
            assert_eq!(out.filtered, serial.filtered);
            assert_eq!(out.ridgeness, serial.ridgeness);
            par.recycle(out);
        }
    }
}
