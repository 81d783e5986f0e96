//! Trace-driven workload harness: replayable scenario storms,
//! mixed-resolution stream fleets, and golden-trace regression records.
//!
//! Three pieces (DESIGN.md §4j):
//!
//! - [`trace`]: the versioned, hand-editable trace file format — streams,
//!   arrival schedules, resolution mixes, scripted scenario storms, fault
//!   plans — with typed-error parsing and canonical serialization.
//! - [`runner`]: [`TraceRunner`] replays a trace deterministically
//!   through the service tier ([`ServiceHandle`]-driven on a virtual
//!   clock: arrival times are bookkeeping, frames are submitted as fast
//!   as backpressure allows).
//! - [`ledger`]: [`RunLedger`], the per-frame replay record whose
//!   diffable plane is deterministic under a fixed trace. It is written
//!   as text and compared with the text of a golden ledger, line by line
//!   — the golden-trace regression tests in `tests/golden_traces.rs`.
//!
//! [`ServiceHandle`]: crate::service::ServiceHandle

pub mod ledger;
pub mod runner;
pub mod trace;

pub use ledger::{pixel_digest, FrameOutcome, LedgerEntry, RunLedger, SubmitClass};
pub use runner::{ReplayReport, TraceRunner};
pub use trace::{Arrival, ArrivalModel, StreamProfile, StreamTrace, Trace, TraceError};
