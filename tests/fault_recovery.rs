//! Integration: multi-stream fault recovery.
//!
//! A 4-stream session with injected stripe-worker panics and forced
//! budget overruns (inflated stage times against a tight budget) must run
//! to completion with every stream recovered: a clean report, a terminal
//! `Recovered`/`DegradedMode` event for every injected fault, no worker
//! threads leaked from the shared `StripePool`, and an event-for-event
//! identical replay across two executions of the same seed.
//!
//! The `#[ignore]`d soak variant scales the same assertions up; run it
//! with `cargo test --release --test fault_recovery -- --ignored`.

use triple_c::imaging::parallel::StripePool;
use triple_c::pipeline::app::AppConfig;
use triple_c::pipeline::executor::ExecutionPolicy;
use triple_c::pipeline::runner::run_sequence;
use triple_c::platform::bus::{FrameEvent, StreamId};
use triple_c::platform::metrics::Observability;
use triple_c::runtime::{
    BackpressurePolicy, EvictionPolicy, FaultPlan, FaultPlanConfig, LatencyBudget, ServiceConfig,
    ServiceCore, ServiceReport, SessionReport, ShardLayout, StreamEngine, StreamResult, StreamSpec,
};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

fn seq(seed: u64, frames: usize) -> SequenceConfig {
    SequenceConfig {
        width: 128,
        height: 128,
        frames,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

fn trained_model() -> TripleC {
    let profile = run_sequence(
        seq(100, 10),
        &AppConfig::default(),
        &ExecutionPolicy::default(),
    );
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: 128,
            height: 128,
        },
    };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

fn run_faulted(
    model: &TripleC,
    seeds: &[u64],
    frames: usize,
    plan: FaultPlan,
    budget: LatencyBudget,
) -> SessionReport {
    let specs: Vec<StreamSpec> = seeds
        .iter()
        .map(|&s| {
            StreamSpec::builder(seq(s, frames), AppConfig::default(), model.clone())
                .budget(budget)
                .faults(plan)
                .build()
        })
        .collect();
    // one shard over the shared global pool: the pool-level faults (and
    // the thread accounting below) hit the process-wide workers. A
    // tight-budget stream is granted the whole shard, so those are
    // admitted in turn; generous-budget streams run side by side.
    let cfg = ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        max_concurrent: seeds.len(),
        ..Default::default()
    };
    ServiceCore::new(cfg).run_batch(specs).session
}

/// Every `FaultInjected` event has a terminal `Recovered` (same kind) or
/// `DegradedMode` (caused by that kind) on the same stream and frame.
fn assert_every_fault_terminated(streams: &[StreamResult]) {
    for s in streams {
        for e in &s.fault_events {
            if let FrameEvent::FaultInjected {
                stream,
                frame,
                kind,
            } = e
            {
                let matched = s.fault_events.iter().any(|t| match t {
                    FrameEvent::Recovered {
                        stream: ts,
                        frame: tf,
                        kind: tk,
                        ..
                    } => ts == stream && tf == frame && tk == kind,
                    FrameEvent::DegradedMode {
                        stream: ts,
                        frame: tf,
                        cause,
                        ..
                    } => ts == stream && tf == frame && cause == kind,
                    _ => false,
                });
                assert!(
                    matched,
                    "stream {stream} frame {frame}: injected {} fault never terminated",
                    kind.name()
                );
            }
        }
    }
}

fn assert_recovered_session(report: &SessionReport, seeds: &[u64], frames: usize) {
    assert!(
        report.is_clean(),
        "session had stream failures: {:?}",
        report.failures
    );
    assert_recovered_streams(&report.streams, seeds, frames);
}

/// [`assert_recovered_streams`] over streams of different lengths.
fn assert_recovered_each(streams: &[StreamResult], seeds: &[u64], frames: &[usize]) {
    assert_eq!(streams.len(), seeds.len());
    for (i, &frames) in frames.iter().enumerate() {
        assert_recovered_streams(&streams[i..=i], &seeds[i..=i], frames);
    }
}

fn assert_recovered_streams(streams: &[StreamResult], seeds: &[u64], frames: usize) {
    assert_eq!(streams.len(), seeds.len());
    for s in streams {
        assert_eq!(
            s.trace.len() + s.dropped_frames,
            frames,
            "stream {}: frames unaccounted for",
            s.stream
        );
        let injected = s
            .fault_events
            .iter()
            .filter(|e| matches!(e, FrameEvent::FaultInjected { .. }))
            .count();
        let recovered = s
            .fault_events
            .iter()
            .filter(|e| matches!(e, FrameEvent::Recovered { .. }))
            .count();
        assert!(injected > 0, "stream {}: no fault was injected", s.stream);
        assert!(
            recovered > 0,
            "stream {}: never emitted Recovered",
            s.stream
        );
    }
    assert_every_fault_terminated(streams);
}

#[test]
fn four_streams_recover_from_panics_and_overruns_without_leaking_threads() {
    let model = trained_model();
    let seeds = [7, 8, 11, 12];
    let frames = 8;
    // every frame arms a worker panic; inflated stage times against the
    // tight budget force repeated overruns
    let plan = FaultPlan::new(
        2024,
        FaultPlanConfig {
            panic_rate: 1.0,
            channel_rate: 0.3,
            delay_rate: 1.0,
            delay_ms: 4.0,
            ..Default::default()
        },
    );
    let budget = LatencyBudget::new(2.0, 0.1);

    // warm the shared pool up first so lazy spawning doesn't masquerade
    // as a leak, then hold the worker count across the faulted run
    let pool_threads = StripePool::global().live_threads();
    assert!(pool_threads > 0, "global stripe pool has no workers");

    let report = run_faulted(&model, &seeds, frames, plan, budget);
    assert_recovered_session(&report, &seeds, frames);

    // the injected delays actually produced budget overruns
    let overruns: usize = report
        .streams
        .iter()
        .flat_map(|s| s.trace.latencies())
        .filter(|&l| l > budget.target_ms)
        .count();
    assert!(overruns > 0, "no budget overrun was ever observed");

    assert_eq!(
        StripePool::global().live_threads(),
        pool_threads,
        "worker panics leaked or killed stripe-pool threads"
    );
}

#[test]
fn faulted_four_stream_run_replays_event_for_event() {
    let model = trained_model();
    let seeds = [21, 22, 23, 24];
    let frames = 6;
    // every seeded fault kind armed
    let plan = FaultPlan::new(
        777,
        FaultPlanConfig {
            panic_rate: 0.5,
            channel_rate: 0.4,
            delay_rate: 0.4,
            delay_ms: 1.0,
            drop_rate: 0.2,
            corrupt_rate: 0.3,
        },
    );
    let budget = LatencyBudget::new(10_000.0, 0.1);

    let keys = |streams: &[StreamResult]| -> Vec<Vec<String>> {
        streams
            .iter()
            .map(|s| {
                s.fault_events
                    .iter()
                    .filter_map(|e| e.replay_key())
                    .collect()
            })
            .collect()
    };

    let first = run_faulted(&model, &seeds, frames, plan, budget);
    let second = run_faulted(&model, &seeds, frames, plan, budget);
    assert_recovered_session(&first, &seeds, frames);
    assert_recovered_session(&second, &seeds, frames);
    let (k1, k2) = (keys(&first.streams), keys(&second.streams));
    assert!(
        k1.iter().map(|s| s.len()).sum::<usize>() > 0,
        "replay comparison is vacuous: no fault events recorded"
    );
    assert_eq!(k1, k2, "two executions of seed 777 diverged");
}

/// A faulted stream that is pre-empted mid-run and resumed on a later turn
/// must behave exactly as if it had never been parked: the replay keys are
/// stable across two service executions of the same seed, and both the
/// keys and the scenario trace match an uninterrupted run of the same
/// streams through bare engines with no scheduler at all.
#[test]
fn parked_streams_replay_like_bare_engines() {
    let model = trained_model();
    let seeds = [41u64, 42];
    // a long stream, and a shorter one that arrives while it runs
    let frames = [10usize, 4];
    // every seeded fault kind armed; the generous budget demands one core
    let plan = FaultPlan::new(
        555,
        FaultPlanConfig {
            panic_rate: 0.5,
            channel_rate: 0.4,
            delay_rate: 0.4,
            delay_ms: 1.0,
            drop_rate: 0.2,
            corrupt_rate: 0.3,
        },
    );
    let budget = LatencyBudget::new(10_000.0, 0.1);

    let specs = |seeds: &[u64]| -> Vec<StreamSpec> {
        seeds
            .iter()
            .zip(frames)
            .map(|(&s, frames)| {
                StreamSpec::builder(seq(s, frames), AppConfig::default(), model.clone())
                    .budget(budget)
                    .faults(plan)
                    .build()
            })
            .collect()
    };
    // one worker, looking up every 2 frames; queues hold a whole stream
    let cfg = ServiceConfig {
        total_cores: 2,
        layout: ShardLayout::Single,
        queue_capacity: frames[0],
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::TimeSlice { frames: 2 },
        max_concurrent: 1,
    };
    // The long stream is queued whole and takes the worker; the short
    // stream's frames arrive behind it. With less predicted work left the
    // short stream outranks the long one, which parks mid-run at its next
    // quantum and resumes once the short stream is done.
    let staged = |specs: Vec<StreamSpec>| -> ServiceReport {
        let mut inputs = specs
            .iter()
            .map(|s| SequenceGenerator::new(s.seq.clone()).collect::<Vec<_>>());
        let (long, short) = (inputs.next().unwrap(), inputs.next().unwrap());
        drop(inputs);
        let handle = ServiceCore::new(cfg)
            .with_observability(Observability::new())
            .spawn(specs);
        for frame in long {
            handle.submit(0, frame.index, frame.image);
        }
        while handle.metrics().unwrap().counter_total("streams_admitted") == 0 {
            std::thread::yield_now();
        }
        for frame in short {
            handle.submit(1, frame.index, frame.image);
        }
        handle.finish()
    };
    let keys = |streams: &[StreamResult]| -> Vec<Vec<String>> {
        streams
            .iter()
            .map(|s| {
                s.fault_events
                    .iter()
                    .filter_map(|e| e.replay_key())
                    .collect()
            })
            .collect()
    };

    let first = staged(specs(&seeds));
    let second = staged(specs(&seeds));
    for report in [&first, &second] {
        assert!(
            report.session.is_clean(),
            "session had stream failures: {:?}",
            report.session.failures
        );
        assert_recovered_each(&report.session.streams, &seeds, &frames);
        assert!(
            report.streams[0].evictions > 0,
            "the long stream was never parked mid-run: the time slice never fired"
        );
    }
    let (k1, k2) = (keys(&first.session.streams), keys(&second.session.streams));
    assert!(
        k1.iter().map(|s| s.len()).sum::<usize>() > 0,
        "replay comparison is vacuous: no fault events recorded"
    );
    assert_eq!(k1, k2, "pre-empted executions of seed 555 diverged");

    // an uninterrupted run of the same streams on the calling thread
    // (same per-stream core grant: a generous budget demands one core)
    // sees the identical fault schedule and scenario trace — parking and
    // resuming is transparent
    let uninterrupted: Vec<StreamResult> = specs(&seeds)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            StreamEngine::new(i as StreamId, spec, 1)
                .run()
                .expect("every armed fault recovers")
        })
        .collect();
    assert_recovered_each(&uninterrupted, &seeds, &frames);
    assert_eq!(
        keys(&uninterrupted),
        k1,
        "parking and resuming perturbed the fault replay keys"
    );
    for (us, ss) in uninterrupted.iter().zip(first.session.streams.iter()) {
        assert_eq!(us.stream, ss.stream);
        assert_eq!(us.cores, ss.cores);
        assert_eq!(
            us.trace.scenarios(),
            ss.trace.scenarios(),
            "stream {}: scenario trace diverged between the service and a bare engine",
            us.stream
        );
    }
}

/// Soak: more streams, more frames, every fault kind at once.
/// Run with `cargo test --release --test fault_recovery -- --ignored`.
#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_eight_streams_all_fault_kinds() {
    let model = trained_model();
    let seeds = [31, 32, 33, 34, 35, 36, 37, 38];
    let frames = 24;
    let plan = FaultPlan::new(
        0xDEAD_BEEF,
        FaultPlanConfig {
            panic_rate: 0.6,
            channel_rate: 0.5,
            delay_rate: 0.5,
            delay_ms: 3.0,
            drop_rate: 0.15,
            corrupt_rate: 0.2,
        },
    );
    let budget = LatencyBudget::new(2.0, 0.1);

    let pool_threads = StripePool::global().live_threads();
    let report = run_faulted(&model, &seeds, frames, plan, budget);
    assert_recovered_session(&report, &seeds, frames);
    assert_eq!(
        StripePool::global().live_threads(),
        pool_threads,
        "soak run leaked stripe-pool threads"
    );
    // at least one stream actually dropped a frame and one quarantined its
    // model, so the soak exercised every recovery path
    assert!(
        report.streams.iter().any(|s| s.dropped_frames > 0),
        "soak never exercised the frame-drop path"
    );
    assert!(
        report.streams.iter().any(|s| s
            .fault_events
            .iter()
            .any(|e| matches!(e, FrameEvent::FaultInjected { kind, .. }
                    if *kind == triple_c::platform::bus::FaultKind::SnapshotCorruption))),
        "soak never exercised the snapshot-corruption path"
    );
}
