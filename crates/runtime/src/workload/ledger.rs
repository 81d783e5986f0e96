//! The run ledger: per-frame replay outcomes in a diffable text form.
//!
//! A [`RunLedger`] records, for every frame a [`super::TraceRunner`]
//! submitted, the facts of the replay that are deterministic under a
//! fixed trace + seed: global submit order, scheduled arrival time,
//! admission outcome, executed-vs-dropped, reported scenario, planned
//! (predicted) frame time and stripe count, latency classification
//! against the stream's budget, and a digest of the display output.
//! Fault-injection replay keys ride along as their own record family.
//!
//! Measured wall-clock timing is inherently nondeterministic, so it is
//! written only as `#`-prefixed note lines. [`RunLedger::diff`] compares
//! a ledger with the text of another, line by line, and skips those
//! lines, so golden-ledger tests compare only the deterministic plane, in
//! the form the goldens are written in.
//!
//! ```text
//! triplec-ledger v1
//! frame s0/f0 seq=0 arrival_ms=0 submit=accepted outcome=executed scenario=1 predicted_ms=41.2 stripes=4 class=ok quantile=p99 digest=9e3779b97f4a7c15
//! fault s0/f3/inject/frame-drop
//! # wall_ms s0 412.7
//! ```

use super::trace::TRACE_VERSION;
use platform::bus::StreamId;

/// Header magic of a ledger file.
const LEDGER_MAGIC: &str = "triplec-ledger";

/// How the service admitted a submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitClass {
    /// Queued (possibly after blocking on backpressure).
    Accepted,
    /// Admitted by evicting the oldest queued frame.
    DroppedOldest,
    /// Refused by admission control.
    Rejected,
}

impl SubmitClass {
    fn name(&self) -> &'static str {
        match self {
            SubmitClass::Accepted => "accepted",
            SubmitClass::DroppedOldest => "dropped_oldest",
            SubmitClass::Rejected => "rejected",
        }
    }
}

/// Whether the frame ultimately produced output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame ran the pipeline and appears in the stream trace log.
    Executed,
    /// The frame was dropped (fault injection or eviction) and never ran.
    Dropped,
}

impl FrameOutcome {
    fn name(&self) -> &'static str {
        match self {
            FrameOutcome::Executed => "executed",
            FrameOutcome::Dropped => "dropped",
        }
    }
}

/// One frame's deterministic replay record.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Stream the frame belongs to.
    pub stream: StreamId,
    /// Frame index within the stream.
    pub frame: usize,
    /// Position in the global submit order.
    pub seq: usize,
    /// Scheduled arrival time, ms from trace start.
    pub arrival_ms: f64,
    /// Admission outcome.
    pub submit: SubmitClass,
    /// Executed or dropped.
    pub outcome: FrameOutcome,
    /// Reported scenario id (0-7), or `None` for dropped frames.
    pub scenario: Option<u8>,
    /// Planned (predicted) frame time, ms, or `None` for dropped frames.
    pub predicted_ms: Option<f64>,
    /// Planned RDG stripe count, or `None` for dropped frames.
    pub stripes: Option<usize>,
    /// Latency class of the planned scheduling cost (the admission
    /// policy's point of the predicted distribution) against the stream
    /// budget: `"ok"` (≤ 80% of budget), `"tight"` (≤ budget), `"over"`,
    /// or `"-"` for dropped frames.
    pub class: &'static str,
    /// Admission-policy label the classification was made against
    /// (`"mean"`, `"p99"`, ...; `"-"` for dropped frames).
    pub quantile: String,
    /// FNV-1a 64 digest of the display output pixels, or `None` when the
    /// frame produced no display.
    pub digest: Option<u64>,
}

impl LedgerEntry {
    /// Stable replay key of this frame (`s{stream}/f{frame}`), the same
    /// keyspace fault replay keys extend.
    pub fn replay_key(&self) -> String {
        format!("s{}/f{}", self.stream, self.frame)
    }
}

/// Classifies a predicted frame time against a latency budget.
pub(crate) fn latency_class(predicted_ms: f64, budget_ms: f64) -> &'static str {
    if predicted_ms <= 0.8 * budget_ms {
        "ok"
    } else if predicted_ms <= budget_ms {
        "tight"
    } else {
        "over"
    }
}

/// A complete replay record: frame entries in submit order, fault replay
/// keys, and free-form notes (excluded from diffs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunLedger {
    /// Frame records, ordered by `seq`.
    pub entries: Vec<LedgerEntry>,
    /// Fault-injection replay keys, in `(stream, emission)` order.
    pub faults: Vec<String>,
    /// Non-diffed annotations (measured wall times and the like).
    pub notes: Vec<String>,
}

impl RunLedger {
    /// Serializes to the canonical text form. Notes become `#` lines.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{LEDGER_MAGIC} v{TRACE_VERSION}");
        for e in &self.entries {
            let scenario = e
                .scenario
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let predicted = e
                .predicted_ms
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into());
            let stripes = e
                .stripes
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let digest = e
                .digest
                .map(|d| format!("{d:016x}"))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "frame {} seq={} arrival_ms={} submit={} outcome={} scenario={} \
                 predicted_ms={} stripes={} class={} quantile={} digest={}",
                e.replay_key(),
                e.seq,
                e.arrival_ms,
                e.submit.name(),
                e.outcome.name(),
                scenario,
                predicted,
                stripes,
                e.class,
                e.quantile,
                digest
            );
        }
        for key in &self.faults {
            let _ = writeln!(out, "fault {key}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }

    /// Compares the diffable plane with `expected`, a ledger's text form:
    /// the non-`#` lines of both texts, in order. Returns one message per
    /// differing line (its line number in `expected`, the expected line and
    /// this ledger's) and one for a line-count mismatch; empty when they
    /// replay identically.
    pub fn diff(&self, expected: &str) -> Vec<String> {
        let text = self.to_text();
        let plane = |text: &str| -> Vec<(usize, String)> {
            text.lines()
                .enumerate()
                .filter(|(_, l)| !l.starts_with('#'))
                .map(|(i, l)| (i + 1, l.to_string()))
                .collect()
        };
        let (want, got) = (plane(expected), plane(&text));
        let mut out: Vec<String> = want
            .iter()
            .zip(&got)
            .filter(|((_, w), (_, g))| w != g)
            .map(|((line, w), (_, g))| format!("line {line}: expected {w:?}, got {g:?}"))
            .collect();
        if want.len() != got.len() {
            out.push(format!(
                "line count: expected {}, got {}",
                want.len(),
                got.len()
            ));
        }
        out
    }
}

/// FNV-1a 64 digest of a display buffer (stable across platforms).
pub fn pixel_digest(pixels: &[u16]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in pixels {
        for byte in p.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stream: StreamId, frame: usize, seq: usize) -> LedgerEntry {
        LedgerEntry {
            stream,
            frame,
            seq,
            arrival_ms: seq as f64 * 33.33,
            submit: SubmitClass::Accepted,
            outcome: FrameOutcome::Executed,
            scenario: Some(7),
            predicted_ms: Some(41.25),
            stripes: Some(4),
            class: "ok",
            quantile: "p99".to_string(),
            digest: Some(0x9e37_79b9_7f4a_7c15),
        }
    }

    #[test]
    fn text_diff_reports_changed_lines_and_skips_notes() {
        let mut ledger = RunLedger::default();
        ledger.entries.push(entry(0, 0, 0));
        ledger.entries.push(LedgerEntry {
            outcome: FrameOutcome::Dropped,
            scenario: None,
            predicted_ms: None,
            stripes: None,
            class: "-",
            quantile: "-".to_string(),
            digest: None,
            ..entry(1, 0, 1)
        });
        ledger.faults.push("s1/f0/inject/frame-drop".into());
        ledger.notes.push("wall_ms s0 412.7".into());
        let text = ledger.to_text();
        assert!(ledger.diff(&text).is_empty());

        // a changed `#` note is no divergence
        let mut renoted = ledger.clone();
        renoted.notes[0] = "wall_ms s0 9.9".into();
        assert!(renoted.diff(&text).is_empty());

        // one changed field: one message naming its line, both forms
        let mut changed = ledger.clone();
        changed.entries[0].stripes = Some(2);
        let d = changed.diff(&text);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("line 2: "), "{}", d[0]);
        assert!(d[0].contains("stripes=4") && d[0].contains("stripes=2"));

        // a missing record shows as a line-count mismatch
        let mut shorter = ledger.clone();
        shorter.faults.clear();
        assert_eq!(shorter.diff(&text), ["line count: expected 4, got 3"]);
    }

    #[test]
    fn latency_classes() {
        assert_eq!(latency_class(10.0, 100.0), "ok");
        assert_eq!(latency_class(80.0, 100.0), "ok");
        assert_eq!(latency_class(90.0, 100.0), "tight");
        assert_eq!(latency_class(100.5, 100.0), "over");
    }

    #[test]
    fn pixel_digest_is_stable() {
        assert_eq!(pixel_digest(&[]), 0xcbf2_9ce4_8422_2325);
        let a = pixel_digest(&[1, 2, 3]);
        assert_eq!(a, pixel_digest(&[1, 2, 3]));
        assert_ne!(a, pixel_digest(&[1, 2, 4]));
    }
}
