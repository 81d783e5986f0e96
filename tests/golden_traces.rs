//! Golden-trace regression suite: the checked-in workload traces under
//! `traces/` replay to checked-in ledgers, and any change to admission,
//! queueing, planning, or latency-classification behavior shows up as a
//! ledger diff.
//!
//! The diffable plane of a [`RunLedger`] is deterministic by
//! construction (synthetic prediction models with online training off,
//! explicit budgets, schedule-derived arrival facts, seeded fault
//! plans), so the comparison is exact — no tolerances. A fresh replay's
//! text is compared with the golden file line by line; measured wall
//! times live in `#` note lines, which never diff.
//!
//! An intentional behavior change is recorded by regenerating the
//! goldens (mirroring `API.txt` / `UPDATE_API`):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! git diff traces/   # review the behavior change, then commit it
//! ```

use runtime::workload::{RunLedger, Trace, TraceRunner};
use runtime::{BackpressurePolicy, EvictionPolicy, ServiceConfig, ShardLayout};
use std::path::PathBuf;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The pinned service configuration goldens replay under: the paper's
/// 8-core budget as a single shard, so grants and stripe counts never
/// depend on host topology or config-default drift.
fn pinned_config() -> ServiceConfig {
    ServiceConfig {
        total_cores: 8,
        layout: ShardLayout::Single,
        queue_capacity: 4,
        backpressure: BackpressurePolicy::Block,
        eviction: EvictionPolicy::None,
        max_concurrent: 8,
    }
}

fn load_trace(name: &str) -> Trace {
    let path = repo().join("traces").join(format!("{name}.trace"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Trace::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn replay(name: &str) -> RunLedger {
    TraceRunner::new(load_trace(name))
        .with_service_config(pinned_config())
        .run()
        .ledger
}

fn check_golden(name: &str) {
    let fresh = replay(name);
    let golden_path = repo().join("traces").join(format!("{name}.ledger"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, fresh.to_text()).expect("write golden ledger");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\n(regenerate with UPDATE_GOLDEN=1 cargo test --test golden_traces)",
            golden_path.display()
        )
    });
    let diff = fresh.diff(&text);
    assert!(
        diff.is_empty(),
        "{name}: replay diverged from golden ledger:\n  {}\n\
         (intentional? UPDATE_GOLDEN=1 cargo test --test golden_traces)",
        diff.join("\n  ")
    );
}

#[test]
fn storm_trace_matches_golden() {
    check_golden("storm");
}

#[test]
fn burst_trace_matches_golden() {
    check_golden("burst");
}

#[test]
fn mixed_trace_matches_golden() {
    check_golden("mixed");
}

/// The acceptance property behind the whole suite: replaying the same
/// trace twice yields ledger-identical runs.
#[test]
fn replay_twice_is_ledger_identical() {
    let a = replay("storm");
    let b = replay("storm");
    let diff = a.diff(&b.to_text());
    assert!(diff.is_empty(), "same trace, same seed diverged: {diff:?}");
}

/// The mixed trace's fault plan must drop deterministically: the
/// golden records which frames never executed, and fault replay keys
/// ride in the ledger's own key family.
#[test]
fn mixed_trace_fault_plane_is_recorded() {
    let ledger = replay("mixed");
    let dropped: Vec<String> = ledger
        .entries
        .iter()
        .filter(|e| e.outcome == runtime::workload::FrameOutcome::Dropped)
        .map(|e| e.replay_key())
        .collect();
    assert!(
        !dropped.is_empty(),
        "drop_rate=0.25 over 8 frames dropped nothing"
    );
    for key in &dropped {
        assert!(
            ledger
                .faults
                .iter()
                .any(|f| f.starts_with(&format!("{key}/"))),
            "dropped frame {key} has no fault replay key: {:?}",
            ledger.faults
        );
    }
}
