//! Integration: multi-stream sessions.
//!
//! Streams scheduled concurrently by the `ServiceCore` must produce
//! **bit-identical** per-frame outputs to running the same streams
//! serially back-to-back through bare `StreamEngine`s (pixel results are
//! independent of partitioning policy and timing), and on a multi-core
//! host, running streams concurrently must multiply aggregate throughput.

use triple_c::pipeline::app::AppConfig;
use triple_c::pipeline::executor::ExecutionPolicy;
use triple_c::pipeline::runner::run_sequence;
use triple_c::platform::bus::StreamId;
use triple_c::runtime::{
    LatencyBudget, ServiceConfig, ServiceCore, StreamEngine, StreamResult, StreamSpec,
};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::xray::{NoiseConfig, SequenceConfig};

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

fn specs(model: &TripleC, seeds: &[u64], frames: usize) -> Vec<StreamSpec> {
    seeds
        .iter()
        .map(|&s| StreamSpec::builder(seq(s, frames), AppConfig::default(), model.clone()).build())
        .collect()
}

/// The serial reference: every stream run to completion on the calling
/// thread, one after the other, with no scheduler in the path.
fn run_serial(specs: Vec<StreamSpec>) -> Vec<StreamResult> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            StreamEngine::new(i as StreamId, spec, 1)
                .run()
                .expect("nominal stream completes")
        })
        .collect()
}

/// All streams at once through the service tier (the default 8-core
/// budget admits up to eight 1-core streams concurrently).
fn run_concurrent(specs: Vec<StreamSpec>) -> Vec<StreamResult> {
    let report = ServiceCore::new(ServiceConfig::default()).run_batch(specs);
    assert!(report.session.is_clean(), "{:?}", report.session.failures);
    report.session.streams
}

fn assert_streams_bit_identical(serial: &[StreamResult], concurrent: &[StreamResult]) {
    assert_eq!(serial.len(), concurrent.len());
    for (a, b) in serial.iter().zip(concurrent) {
        assert_eq!(a.stream, b.stream);
        assert_eq!(
            a.trace.scenarios(),
            b.trace.scenarios(),
            "stream {}: scenario paths diverged",
            a.stream
        );
        assert_eq!(a.displays.len(), b.displays.len());
        for (i, (da, db)) in a.displays.iter().zip(&b.displays).enumerate() {
            assert_eq!(
                da, db,
                "stream {} frame {i}: display output differs between serial and concurrent execution",
                a.stream
            );
        }
    }
}

#[test]
fn two_concurrent_streams_bit_identical_to_serial() {
    let model = trained_model();
    let seeds = [7, 8];
    let serial = run_serial(specs(&model, &seeds, 8));
    let concurrent = run_concurrent(specs(&model, &seeds, 8));
    assert_streams_bit_identical(&serial, &concurrent);
    // both streams actually produced output frames
    for s in &serial {
        assert!(
            s.displays.iter().any(|d| d.is_some()),
            "stream {} never produced a display",
            s.stream
        );
    }
}

#[test]
fn four_concurrent_streams_multiply_aggregate_throughput() {
    let model = trained_model();
    let seeds = [11, 12, 13, 14];
    let frames = 10;
    // a generous fixed budget keeps every plan serial, so the serial and
    // concurrent runs execute identical work (no intra-stream striping)
    let with_budget = || {
        let mut specs = specs(&model, &seeds, frames);
        for s in &mut specs {
            s.budget = Some(LatencyBudget::new(10_000.0, 0.1));
        }
        specs
    };
    /// Runs the streams and returns them with the aggregate frames/s.
    fn timed(
        run: fn(Vec<StreamSpec>) -> Vec<StreamResult>,
        specs: Vec<StreamSpec>,
    ) -> (Vec<StreamResult>, f64) {
        let t0 = std::time::Instant::now();
        let streams = run(specs);
        let frames: usize = streams.iter().map(|s| s.trace.len()).sum();
        (streams, frames as f64 / t0.elapsed().as_secs_f64())
    }

    let (serial, serial_fps) = timed(run_serial, with_budget());
    let (concurrent, concurrent_fps) = timed(run_concurrent, with_budget());

    // outputs stay bit-identical under concurrency, always
    assert_streams_bit_identical(&serial, &concurrent);

    // the >=2.5x aggregate-throughput criterion requires >=4 host cores
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host < 4 {
        eprintln!("skipping throughput assertion: only {host} host core(s)");
        return;
    }
    let speedup = concurrent_fps / serial_fps;
    assert!(
        speedup >= 2.5,
        "4-stream aggregate throughput speedup {speedup:.2}x < 2.5x \
         (serial {serial_fps:.1} fps, concurrent {concurrent_fps:.1} fps)"
    );
}
