//! Property tests over the workload trace format: for **any** valid
//! trace, the canonical serialization round-trips through the parser to
//! an equal value; for **any** input bytes, parsing terminates with
//! `Ok` or a typed [`TraceError`] — never a panic. Malformed, truncated,
//! and version-skewed inputs are pinned as explicit rejection cases.
//!
//! The vendored offline proptest draws numeric tuples only, so each
//! case expands a drawn seed into a random-but-valid `Trace` through a
//! seeded generator (`arbitrary_trace`) — same coverage, deterministic
//! across machines.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::faults::{FaultPlan, FaultPlanConfig};
use runtime::workload::trace::{ArrivalModel, StreamTrace, Trace, TraceError};
use runtime::workload::StreamProfile;
use triplec::ScriptSegment;

/// Expands a seed into a random valid trace: 1-3 streams over all three
/// profiles, all three arrival models, optional scenario scripts and
/// fault plans, arbitrary (finite, in-range) float parameters.
fn arbitrary_trace(seed: u64, n_streams: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let streams = (0..n_streams)
        .map(|id| {
            let profile = match rng.gen_range(0..3) {
                0 => StreamProfile::Stent,
                1 => StreamProfile::Surveillance,
                _ => StreamProfile::ZoomOnly,
            };
            let arrival = match rng.gen_range(0..3) {
                0 => ArrivalModel::Fixed {
                    period_ms: rng.gen_range(0.0..500.0),
                },
                1 => ArrivalModel::Burst {
                    period_ms: rng.gen_range(0.0..100.0),
                    burst_len: rng.gen_range(1..8),
                    gap_ms: rng.gen_range(0.0..1000.0),
                },
                _ => ArrivalModel::Poisson {
                    rate_hz: rng.gen_range(0.1..120.0),
                    seed: rng.gen(),
                },
            };
            let script = (0..rng.gen_range(0..6))
                .map(|_| ScriptSegment {
                    scenario: rng.gen_range(0..8),
                    frames: rng.gen_range(1..20),
                })
                .collect();
            let faults = if rng.gen_bool(0.5) {
                Some(FaultPlan::new(
                    rng.gen(),
                    FaultPlanConfig {
                        panic_rate: rng.gen_range(0.0..1.0),
                        channel_rate: rng.gen_range(0.0..1.0),
                        delay_rate: rng.gen_range(0.0..1.0),
                        delay_ms: rng.gen_range(0.0..50.0),
                        drop_rate: rng.gen_range(0.0..1.0),
                        corrupt_rate: rng.gen_range(0.0..1.0),
                    },
                ))
            } else {
                None
            };
            StreamTrace {
                id: id as u32,
                profile,
                width: rng.gen_range(32..256),
                height: rng.gen_range(32..256),
                frames: rng.gen_range(1..40),
                seed: rng.gen(),
                budget_ms: rng.gen_range(1.0..500.0),
                arrival,
                script,
                faults,
            }
        })
        .collect();
    Trace {
        version: 1,
        streams,
    }
}

/// Expands a seed into printable-ish garbage: random tokens, key=value
/// shards, stray numbers, embedded nulls and multi-byte characters.
fn arbitrary_garbage(seed: u64, lines: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = [
        "stream",
        "arrival",
        "scenario",
        "faults",
        "frame",
        "fault",
        "hold",
        "thrash",
        "fixed",
        "burst",
        "poisson",
        "id=",
        "frames=",
        "width=",
        "=",
        "==",
        "-",
        "9",
        "-3.5",
        "NaN",
        "inf",
        "1e999",
        "\u{fe0f}",
        "\0",
        "profile=stent",
        "seq=",
        "digest=zz",
        "v1",
        "v999",
    ];
    let mut out = String::new();
    for _ in 0..lines {
        let k = rng.gen_range(0..8);
        for _ in 0..k {
            out.push_str(words[rng.gen_range(0..words.len())]);
            if rng.gen_bool(0.7) {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

proptest! {
    /// Canonical serialization is lossless: `parse(to_text(t)) == t`.
    /// (Holds exactly — Rust's shortest-round-trip float `Display` plus
    /// hold-only scenario serialization make the text form canonical.)
    #[test]
    fn serializer_parser_round_trip(seed in 0u64..u64::MAX, n in 1usize..4) {
        let trace = arbitrary_trace(seed, n);
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("canonical text parses");
        prop_assert_eq!(parsed, trace);
    }

    /// The expanded schedule is sorted, complete, and deterministic.
    #[test]
    fn schedule_is_sorted_complete_deterministic(seed in 0u64..u64::MAX, n in 1usize..4) {
        let trace = arbitrary_trace(seed, n);
        let a = trace.schedule();
        let b = trace.schedule();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), trace.total_frames());
        for w in a.windows(2) {
            prop_assert!(w[0].at_ms <= w[1].at_ms);
        }
    }

    /// Parsing arbitrary input never panics — it returns `Ok` or a
    /// typed error.
    #[test]
    fn parser_never_panics(seed in 0u64..u64::MAX, lines in 0usize..30) {
        let garbage = arbitrary_garbage(seed, lines);
        let _ = Trace::parse(&garbage);
    }

    /// ...including inputs that start with a valid header and degrade
    /// into arbitrary directive soup.
    #[test]
    fn parser_never_panics_after_header(seed in 0u64..u64::MAX, lines in 0usize..30) {
        let garbage = arbitrary_garbage(seed, lines);
        let _ = Trace::parse(&format!("triplec-trace v1\n{garbage}"));
    }

    /// Truncating a valid trace anywhere still yields `Ok` or a typed
    /// error, never a panic.
    #[test]
    fn truncation_is_rejected_or_degrades_cleanly(
        seed in 0u64..u64::MAX,
        n in 1usize..4,
        cut in 0usize..2000,
    ) {
        let text = arbitrary_trace(seed, n).to_text();
        let mut end = cut.min(text.len());
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = Trace::parse(&text[..end]);
    }
}

#[test]
fn version_skew_is_rejected() {
    for v in ["v0", "v2", "v99", "vx", "1", ""] {
        let text = format!(
            "triplec-trace {v}\nstream 0 profile=stent width=64 height=64 frames=1 seed=0\narrival 0 fixed period_ms=1\n"
        );
        match Trace::parse(&text) {
            Err(TraceError::UnsupportedVersion { .. }) | Err(TraceError::MissingHeader) => {}
            other => panic!("version {v:?} not rejected: {other:?}"),
        }
    }
}

#[test]
fn malformed_directives_carry_line_numbers() {
    let text = "triplec-trace v1\n\
                # comment\n\
                stream 0 profile=stent width=64 height=64 frames=2 seed=1\n\
                arrival 0 warp speed_ms=9\n";
    match Trace::parse(text) {
        Err(TraceError::Syntax { line, .. }) => assert_eq!(line, 4),
        other => panic!("expected syntax error, got {other:?}"),
    }
}

#[test]
fn semantic_violations_are_typed() {
    let zero_frames = "triplec-trace v1\n\
                       stream 0 profile=stent width=64 height=64 frames=0 seed=1\n";
    assert!(matches!(
        Trace::parse(zero_frames),
        Err(TraceError::Invalid { line: 2, .. })
    ));
    let bad_rate = "triplec-trace v1\n\
                    stream 0 profile=stent width=64 height=64 frames=2 seed=1\n\
                    arrival 0 fixed period_ms=1\n\
                    faults 0 seed=3 drop_rate=1.5\n";
    assert!(matches!(
        Trace::parse(bad_rate),
        Err(TraceError::Invalid { line: 4, .. })
    ));
    let dup = "triplec-trace v1\n\
               stream 0 profile=stent width=64 height=64 frames=2 seed=1\n\
               arrival 0 fixed period_ms=1\n\
               stream 0 profile=stent width=64 height=64 frames=2 seed=1\n";
    assert!(matches!(
        Trace::parse(dup),
        Err(TraceError::DuplicateStream { line: 4, stream: 0 })
    ));
    let truncated = "triplec-trace v1\n\
                     stream 0 profile=stent width=64 height=64 frames=2 seed=1\n";
    assert!(matches!(
        Trace::parse(truncated),
        Err(TraceError::MissingArrival { stream: 0 })
    ));
}
