//! Schedule-perturbation stress test of the service tier.
//!
//! Each interleaving arms the perturbation points (`super::perturb`) with
//! its seed, draws a configuration from the same seed — 6–12 streams of
//! mixed length, with and without a time slice, blocking and drop-oldest
//! ingress, queue capacity 1–4, 1–4 concurrent streams, one or several
//! shards, one producer per stream or one for all — and runs it through
//! `ServiceCore::spawn` with the deadline a lost wake-up or a deadlock
//! would miss. No drawn case is left out: one blocking producer feeding
//! more streams than there are workers runs without a time slice too.
//! Whatever the schedule: every frame accepted is executed, every stream
//! completes exactly once, lossless streams reproduce the bare engine's
//! displays and scenario trace, nothing is pre-empted without a time
//! slice, and no thread outlives `finish`.
//!
//! It must fail when `FrameQueue::push` stops ringing the scheduler (a
//! blocked producer then waits on workers nobody wakes) and when a grant
//! is released twice or kept while parked (`Sched::assert_grants_balance`).

use super::perturb::arm;
use super::*;
use crate::faults::fault_hash;
use crate::session::{StreamResult, StreamSpec};
use crate::test_support::trained_model;
use imaging::parallel::StripePool;
use pipeline::app::AppConfig;
use platform::bus::StreamId;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use triplec::triple::TripleC;
use xray::{Frame, SequenceConfig, SequenceGenerator};

/// Frames per stream of the pool the interleavings draw from.
const LENGTHS: [usize; 12] = [2, 5, 3, 7, 4, 2, 6, 3, 5, 4, 2, 3];

/// What an interleaving must finish within; only a deadlock takes longer.
const DEADLINE: Duration = Duration::from_secs(60);

/// The stream pool: inputs rendered once, bare-engine references run once.
struct Pool {
    /// `TripleC` is `Send` but not `Sync`; every spec clones it anyway.
    model: Mutex<TripleC>,
    seqs: Vec<SequenceConfig>,
    inputs: Vec<Vec<Frame>>,
    reference: Vec<StreamResult>,
}

impl Pool {
    fn new() -> Self {
        let model = Mutex::new(trained_model());
        let seqs: Vec<SequenceConfig> = (LENGTHS.iter().enumerate())
            .map(|(i, &frames)| SequenceConfig {
                width: 64,
                height: 64,
                ..crate::test_support::seq(700 + i as u64, frames)
            })
            .collect();
        let inputs = (seqs.iter())
            .map(|seq| SequenceGenerator::new(seq.clone()).collect())
            .collect();
        let mut pool = Self {
            model,
            seqs,
            inputs,
            reference: Vec::new(),
        };
        pool.reference = (0..LENGTHS.len())
            .map(|i| {
                StreamEngine::new(i as StreamId, pool.spec(i), 1)
                    .run()
                    .expect("nominal stream completes")
            })
            .collect();
        pool
    }

    fn spec(&self, i: usize) -> StreamSpec {
        StreamSpec::builder(
            self.seqs[i].clone(),
            AppConfig::default(),
            self.model.lock().unwrap().clone(),
        )
        .build()
    }
}

/// One draw in `0..n` from the interleaving's seed.
fn draw(seed: u64, what: u32, n: u64) -> usize {
    (fault_hash(seed, what, 0, 0x57) % n) as usize
}

/// OS-level thread count of this process (linux); None elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One interleaving's configuration, drawn from its seed.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    streams: usize,
    cfg: ServiceConfig,
    /// One producer submitting round-robin instead of one per stream.
    one_producer: bool,
}

impl Case {
    fn draw(seed: u64) -> Self {
        let streams = 6 + draw(seed, 1, 7);
        let cfg = ServiceConfig {
            total_cores: 4,
            layout: [
                ShardLayout::Single,
                ShardLayout::Grouped { group: 2 },
                ShardLayout::Grouped { group: 1 },
            ][draw(seed, 2, 3)],
            queue_capacity: 1 + draw(seed, 3, 4),
            backpressure: [BackpressurePolicy::Block, BackpressurePolicy::DropOldest]
                [draw(seed, 4, 2)],
            eviction: match draw(seed, 5, 4) {
                0 => EvictionPolicy::None,
                frames => EvictionPolicy::TimeSlice { frames },
            },
            max_concurrent: 1 + draw(seed, 6, 4),
        };
        Self {
            seed,
            streams,
            cfg,
            one_producer: draw(seed, 7, 2) == 0,
        }
    }
}

/// Runs one interleaving and checks every per-schedule invariant.
fn interleaving(pool: &Pool, case: Case) {
    let Case {
        seed,
        streams,
        cfg,
        one_producer,
    } = case;
    let pool_threads = StripePool::global().live_threads();
    arm(seed);
    let handle = ServiceCore::new(cfg).spawn((0..streams).map(|i| pool.spec(i)).collect());
    let mut completed = vec![0usize; streams];
    std::thread::scope(|scope| {
        let handle = &handle;
        let feed = move |i: usize, frame: &Frame| {
            handle.submit(i as StreamId, frame.index, frame.image.clone());
        };
        if one_producer {
            scope.spawn(move || {
                let longest = LENGTHS[..streams].iter().max().copied().unwrap_or(0);
                for k in 0..longest {
                    for i in 0..streams {
                        if let Some(frame) = pool.inputs[i].get(k) {
                            feed(i, frame);
                        }
                    }
                }
                handle.close_all();
            });
        } else {
            for i in 0..streams {
                scope.spawn(move || {
                    pool.inputs[i].iter().for_each(|frame| feed(i, frame));
                    handle.queue(i as StreamId).expect("registered").close();
                });
            }
        }
        while completed.iter().sum::<usize>() < streams {
            match handle.try_poll() {
                Some(done) => {
                    assert!(!done.failed, "{case:?}: stream {} failed", done.stream);
                    completed[done.stream as usize] += 1;
                }
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    });
    assert!(
        handle.try_poll().is_none(),
        "{case:?}: a stream completed twice"
    );
    let report = handle.finish();
    arm(0);

    assert!(completed.iter().all(|&n| n == 1), "{case:?}: {completed:?}");
    assert!(
        report.session.is_clean(),
        "{case:?}: {:?}",
        report.session.failures
    );
    assert_eq!(report.session.streams.len(), streams);
    for (i, (result, stats)) in (report.session.streams.iter())
        .zip(&report.streams)
        .enumerate()
    {
        let what = format!("{case:?} stream {i}");
        assert_eq!(
            result.trace.len() + result.dropped_frames,
            stats.queue.enqueued - stats.queue.dropped,
            "{what}: executed != enqueued - dropped"
        );
        assert!(stats.queue.max_depth <= cfg.queue_capacity, "{what}");
        if cfg.backpressure == BackpressurePolicy::Block {
            assert_eq!(stats.queue.dropped, 0, "{what}");
        }
        if cfg.eviction == EvictionPolicy::None {
            assert_eq!(stats.evictions, 0, "{what}: evicted without a time slice");
        }
        if stats.queue.dropped == 0 {
            let bare = &pool.reference[i];
            assert_eq!(
                result.trace.scenarios(),
                bare.trace.scenarios(),
                "{what}: scenario trace"
            );
            assert!(result.displays == bare.displays, "{what}: displays");
        }
    }
    assert_eq!(
        StripePool::global().live_threads(),
        pool_threads,
        "{case:?}: global stripe-pool threads leaked or died"
    );
}

/// Runs interleavings `seeds`, each on a thread of its own so that one
/// that never ends — a lost wake-up, a deadlock — fails the test instead
/// of hanging it. Then checks that the process is back to the thread count
/// it started with. Unit tests running beside this one come and go, so
/// the count gets a moment to settle; run alone (the nightly job) the
/// comparison is exact.
fn stress(seeds: std::ops::Range<u64>) {
    let pool = Arc::new(Pool::new());
    let before = os_threads();
    for seed in seeds {
        let case = Case::draw(seed);
        let (tx, rx) = mpsc::channel();
        let runner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                interleaving(&pool, case);
                let _ = tx.send(());
            })
        };
        match rx.recv_timeout(DEADLINE) {
            Ok(()) => runner.join().expect("the interleaving reported success"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{case:?}: not done within {DEADLINE:?} — a lost wake-up or a deadlock")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("the interleaving panicked"))
            }
        }
    }
    if let Some(before) = before {
        let t0 = Instant::now();
        while os_threads().is_some_and(|now| now > before) {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "OS threads leaked: {before} before, {:?} after",
                os_threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn perturbed_schedules_keep_every_invariant() {
    stress(1..201);
}

#[test]
#[ignore = "soak test: run with --ignored (nightly CI job)"]
fn perturbed_schedules_keep_every_invariant_soak() {
    stress(1_000..4_000);
}
