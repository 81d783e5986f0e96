//! Nightly soak: the sharded service tier at 8x oversubscription.
//!
//! 64 streams are batch-fed through a `ServiceCore` sized for 8 modelled
//! cores (so at most 8 hold a grant at once and the rest wait their
//! turn). The run must complete every frame of every stream, leak zero
//! threads (shard pools, workers and feeders all joined), and keep the
//! mean per-stream p99 frame latency within 2x of an 8-stream run through
//! the same service configuration.
//!
//! Run with `cargo test --release -- --ignored` (the nightly CI job).

use pipeline::app::AppConfig;
use pipeline::executor::ExecutionPolicy;
use pipeline::runner::run_sequence;
use triple_c::imaging::parallel::StripePool;
use triple_c::pipeline;
use triple_c::runtime::{ServiceConfig, ServiceCore, ServiceReport, StreamSpec};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig};

const FRAMES: usize = 10;

fn seq(seed: u64) -> SequenceConfig {
    SequenceConfig {
        width: 128,
        height: 128,
        frames: FRAMES,
        seed,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    }
}

fn trained_model() -> TripleC {
    let profile = run_sequence(seq(900), &AppConfig::default(), &ExecutionPolicy::default());
    let cfg = TripleCConfig {
        geometry: triple_c::triplec::FrameGeometry {
            width: 128,
            height: 128,
        },
    };
    TripleC::train(&profile.task_series(), &profile.scenarios, cfg)
}

fn run_service(model: &TripleC, streams: usize) -> ServiceReport {
    let specs: Vec<StreamSpec> = (0..streams)
        .map(|i| {
            StreamSpec::builder(seq(3000 + i as u64), AppConfig::default(), model.clone()).build()
        })
        .collect();
    // the default config: 8 modelled cores carved into per-core-group
    // shards, blocking ingress, at most 8 streams running at once
    ServiceCore::new(ServiceConfig::default()).run_batch(specs)
}

/// Median of the per-stream p99 frame latencies: robust to a single
/// stream catching a host-scheduler hiccup during the soak.
fn median_p99(report: &ServiceReport) -> f64 {
    let p99s: Vec<f64> = report
        .session
        .streams
        .iter()
        .map(|s| s.p99_wall_ms())
        .collect();
    triple_c::platform::metrics::percentile(&p99s, 0.5)
}

/// OS-level thread count of this process (linux); None elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

#[test]
#[ignore = "soak test: run with --ignored (nightly CI job)"]
fn soak_sixty_four_streams_bounded_tail_and_no_thread_leaks() {
    let model = trained_model();

    // warm the shared pool so lazy spawning doesn't masquerade as a leak
    let pool_threads = StripePool::global().live_threads();
    assert!(pool_threads > 0, "global stripe pool has no workers");

    // warmup run: absorb one-time costs (page faults, lazy allocation,
    // cold caches) so neither measured run pays them asymmetrically
    let _ = run_service(&model, 2);

    // 8-stream reference through the identical service configuration
    let baseline = run_service(&model, 8);
    assert!(baseline.session.is_clean(), "baseline had stream failures");
    let baseline_p99 = median_p99(&baseline);

    let threads_before = os_threads();
    let report = run_service(&model, 64);
    let threads_after = os_threads();

    assert!(
        report.session.is_clean(),
        "soak had stream failures: {:?}",
        report.session.failures
    );
    assert_eq!(report.session.streams.len(), 64);
    assert_eq!(report.session.total_frames, 64 * FRAMES);
    for s in &report.session.streams {
        assert_eq!(
            s.trace.len() + s.dropped_frames,
            FRAMES,
            "stream {}: frames unaccounted for",
            s.stream
        );
    }

    // zero thread leaks: the shared pool is untouched and every
    // service-owned thread (shard pools, workers, feeders) was joined
    // before run_batch returned
    assert_eq!(
        StripePool::global().live_threads(),
        pool_threads,
        "soak leaked or killed global stripe-pool threads"
    );
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        assert_eq!(
            after, before,
            "soak leaked OS threads ({before} before, {after} after)"
        );
    }

    // 8x oversubscription costs admission latency (streams wait their
    // turn) but must not degrade the per-frame tail of whoever is
    // running: median per-stream p99 stays within 2x of the 8-stream run
    let soak_p99 = median_p99(&report);
    eprintln!("# soak p99 {soak_p99:.2} ms vs 8-stream baseline {baseline_p99:.2} ms");
    assert!(
        soak_p99 <= baseline_p99 * 2.0,
        "per-stream p99 degraded beyond 2x under oversubscription: \
         {soak_p99:.2} ms vs baseline {baseline_p99:.2} ms"
    );

    // every stream was eventually admitted and completed
    assert!(report
        .streams
        .iter()
        .all(|s| s.shard.is_some() && s.admission_wait_ms >= 0.0));
}

/// Nightly soak: tail-driven admission versus mean admission at 64
/// streams.
///
/// The checked-in storm trace's stream is tiled to 64 streams (distinct
/// seeds, same geometry/budget/script) and replayed twice through the
/// pinned 8-core service configuration — once sizing every grant
/// against the predicted mean, once against the predicted p99. The
/// comparison channel is deterministic: a frame whose latency budget is
/// not achievable even fully parallel at the granted width
/// (`StreamResult::infeasible_frames`) is a guaranteed per-stream SLO
/// miss, and grants sized on the mean leave no headroom for the cost
/// fluctuation the predictors' upper tail captures. p99 admission must
/// yield strictly fewer SLO overruns in aggregate and be no worse on
/// any individual stream.
#[test]
#[ignore = "soak test: run with --ignored (nightly CI job)"]
fn soak_sixty_four_streams_p99_admission_beats_mean() {
    use triple_c::runtime::workload::{Trace, TraceRunner};
    use triple_c::runtime::{
        AdmissionPolicy, BackpressurePolicy, EvictionPolicy, ServiceConfig, ShardLayout,
    };

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces/storm.trace");
    let text = std::fs::read_to_string(&path).expect("read storm trace");
    let storm = Trace::parse(&text).expect("parse storm trace");
    let mut base = storm.streams[0].clone();
    // tighten the per-stream SLO into the gap the admission policy
    // decides: grants sized on the mean leave the predictors' ±20 %
    // cost fluctuation uncovered at this budget, grants sized on the
    // p99 absorb it
    base.budget_ms = 36.0;
    let streams = (0..64u32)
        .map(|i| {
            let mut s = base.clone();
            s.id = i;
            s.seed = base.seed + u64::from(i);
            s
        })
        .collect();
    let trace = Trace {
        version: storm.version,
        streams,
    };

    // the golden suite's pinned configuration, widened to hold the fleet
    let cfg = ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        queue_capacity: 64,
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::None,
        max_concurrent: 8,
    };
    // both runs assess per-frame feasibility at the p99 cost (a
    // per-stream SLO is a tail guarantee); only the admission policy —
    // the point of the distribution grants are sized against — varies
    let run = |policy: AdmissionPolicy| {
        TraceRunner::new(trace.clone())
            .with_service_config(cfg)
            .with_admission(policy)
            .with_planning_quantile(0.99)
            .run()
    };

    let mean = run(AdmissionPolicy::Mean);
    let p99 = run(AdmissionPolicy::Quantile(0.99));
    for (label, r) in [("mean", &mean), ("p99", &p99)] {
        assert!(
            r.report.session.is_clean(),
            "{label} run had stream failures: {:?}",
            r.report.session.failures
        );
        assert_eq!(r.report.session.streams.len(), 64);
    }

    let overruns = |r: &triple_c::runtime::workload::ReplayReport| -> Vec<(u32, usize)> {
        r.report
            .session
            .streams
            .iter()
            .map(|s| (s.stream, s.infeasible_frames))
            .collect()
    };
    let mean_over = overruns(&mean);
    let p99_over = overruns(&p99);
    for (label, r) in [("mean", &mean), ("p99", &p99)] {
        let s = &r.report.streams[0];
        eprintln!(
            "# {label}: demand {} cores predicted {:.2} ms granted {} budget {}",
            s.demand.cores, s.demand.predicted_ms, s.cores, base.budget_ms
        );
    }
    let mean_total: usize = mean_over.iter().map(|&(_, n)| n).sum();
    let p99_total: usize = p99_over.iter().map(|&(_, n)| n).sum();
    eprintln!(
        "# SLO overruns over 64 streams: mean admission {mean_total}, p99 admission {p99_total}"
    );

    // the point of tail-driven admission: strictly fewer SLO overruns
    // in aggregate, and no stream is worse off than under mean sizing
    assert!(
        p99_total < mean_total,
        "p99 admission must yield strictly fewer SLO overruns \
         (p99 {p99_total} vs mean {mean_total})"
    );
    for (&(stream, m), &(_, p)) in mean_over.iter().zip(&p99_over) {
        assert!(
            p <= m,
            "stream {stream}: p99 admission overran more than mean ({p} vs {m})"
        );
    }
}
