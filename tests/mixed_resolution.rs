//! Mixed-resolution identity: the same high-resolution stream fleet run
//! through the sharded service tier (queued, admission-controlled,
//! concurrent) must produce **bit-identical** display output to running
//! the identical specs serially back-to-back through bare
//! `StreamEngine`s on the calling thread. Pixel results are a pure
//! function of the stream seed, geometry, and app config — never of
//! queueing, admission, or partitioning decisions.
//!
//! 512² runs in the tier-1 suite; the 1024²/2048² fleet is `#[ignore]`d
//! into the nightly soak (`cargo test --release -- --ignored`).

use runtime::workload::{pixel_digest, FrameOutcome, Trace, TraceRunner};
use runtime::{
    BackpressurePolicy, EvictionPolicy, ServiceConfig, ShardLayout, StreamEngine, StreamResult,
};

fn fleet_trace(resolutions: &[(usize, usize)], frames: usize) -> Trace {
    let mut text = String::from("triplec-trace v1\n");
    for (i, (w, h)) in resolutions.iter().enumerate() {
        text.push_str(&format!(
            "stream {i} profile=stent width={w} height={h} frames={frames} \
             seed={} budget_ms=5000\n",
            70 + i as u64
        ));
        text.push_str(&format!("arrival {i} fixed period_ms=5\n"));
    }
    Trace::parse(&text).expect("fleet trace parses")
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        queue_capacity: 4,
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::None,
        max_concurrent: 8,
    }
}

fn serial_baseline(runner: &TraceRunner) -> Vec<StreamResult> {
    runner
        .specs()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            StreamEngine::new(i as platform::bus::StreamId, spec, 1)
                .run()
                .expect("nominal stream completes")
        })
        .collect()
}

/// Runs the fleet both ways and asserts the pixel plane is identical:
/// per-frame scenario paths, display buffers, and the ledger's FNV
/// digests all match the serial reference.
fn assert_service_identical_to_serial(trace: Trace) {
    let runner = TraceRunner::new(trace).with_service_config(service_cfg());
    let serial = serial_baseline(&runner);

    let replay = TraceRunner::new(runner.trace().clone())
        .with_service_config(service_cfg())
        .run();
    let service = &replay.report.session;
    assert!(service.failures.is_empty(), "{:?}", service.failures);

    assert_eq!(serial.len(), service.streams.len());
    for (a, b) in serial.iter().zip(&service.streams) {
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
                "stream {} frame {i}: display differs between serial and \
                 service-tier execution",
                a.stream
            );
        }
    }

    // the ledger's digests are the same pixels, hashed (frames with no
    // display — idle scenarios — carry no digest on either side)
    for e in &replay.ledger.entries {
        assert_eq!(
            e.outcome,
            FrameOutcome::Executed,
            "s{}/f{}",
            e.stream,
            e.frame
        );
        let expect = serial[e.stream as usize].displays[e.frame]
            .as_ref()
            .map(|img| pixel_digest(img.as_slice()));
        assert_eq!(
            e.digest, expect,
            "s{}/f{}: ledger digest is not the serial pixel digest",
            e.stream, e.frame
        );
    }
}

#[test]
fn service_tier_is_bit_identical_to_serial_at_512() {
    assert_service_identical_to_serial(fleet_trace(&[(512, 512), (512, 512)], 3));
}

/// Full mixed-resolution fleet — 512², 1024², and 2048² side by side.
/// Minutes of compute at 2048²; runs in the nightly soak.
#[test]
#[ignore = "high-resolution fleet; nightly soak only"]
fn service_tier_is_bit_identical_to_serial_at_1024_and_2048() {
    assert_service_identical_to_serial(fleet_trace(&[(512, 512), (1024, 1024), (2048, 2048)], 2));
}
