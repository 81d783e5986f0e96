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
//! written only as `#`-prefixed note lines, which the parser — and
//! therefore [`RunLedger::diff`] — ignores. Golden-ledger tests compare
//! only the deterministic plane.
//!
//! ```text
//! triplec-ledger v1
//! frame s0/f0 seq=0 arrival_ms=0 submit=accepted outcome=executed scenario=1 predicted_ms=41.2 stripes=4 class=ok quantile=p99 digest=9e3779b97f4a7c15
//! fault s0/f3/inject/frame-drop
//! # wall_ms s0 412.7
//! ```

use super::trace::{parse_header, TraceError, TRACE_VERSION};
use crate::service::admission::AdmissionPolicy;
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

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "accepted" => Some(SubmitClass::Accepted),
            "dropped_oldest" => Some(SubmitClass::DroppedOldest),
            "rejected" => Some(SubmitClass::Rejected),
            _ => None,
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

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "executed" => Some(FrameOutcome::Executed),
            "dropped" => Some(FrameOutcome::Dropped),
            _ => None,
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
pub fn latency_class(predicted_ms: f64, budget_ms: f64) -> &'static str {
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

    /// Parses the text form (dropping `#` notes). Typed errors, no
    /// panics.
    pub fn parse(text: &str) -> Result<RunLedger, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .by_ref()
            .find(|(_, l)| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .ok_or(TraceError::MissingHeader)?;
        parse_header(header, LEDGER_MAGIC)?;

        let mut ledger = RunLedger::default();
        for (i, raw) in lines {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let mut toks = t.split_whitespace();
            match toks.next() {
                Some("frame") => {
                    let key = toks.next().ok_or_else(|| TraceError::Syntax {
                        line,
                        message: "frame record needs a replay key".into(),
                    })?;
                    let (stream, frame) = parse_replay_key(key, line)?;
                    let mut entry = LedgerEntry {
                        stream,
                        frame,
                        seq: 0,
                        arrival_ms: 0.0,
                        submit: SubmitClass::Accepted,
                        outcome: FrameOutcome::Executed,
                        scenario: None,
                        predicted_ms: None,
                        stripes: None,
                        class: "-",
                        quantile: "-".to_string(),
                        digest: None,
                    };
                    for tok in toks {
                        let (k, v) = tok.split_once('=').ok_or_else(|| TraceError::Syntax {
                            line,
                            message: format!("expected key=value, got {tok:?}"),
                        })?;
                        let bad = |message: String| TraceError::Syntax { line, message };
                        match k {
                            "seq" => {
                                entry.seq = v.parse().map_err(|_| bad(format!("bad seq {v:?}")))?;
                            }
                            "arrival_ms" => {
                                entry.arrival_ms = v
                                    .parse()
                                    .map_err(|_| bad(format!("bad arrival_ms {v:?}")))?;
                            }
                            "submit" => {
                                entry.submit = SubmitClass::from_name(v)
                                    .ok_or_else(|| bad(format!("bad submit {v:?}")))?;
                            }
                            "outcome" => {
                                entry.outcome = FrameOutcome::from_name(v)
                                    .ok_or_else(|| bad(format!("bad outcome {v:?}")))?;
                            }
                            "scenario" => {
                                entry.scenario =
                                    parse_opt(v).map_err(|_| bad(format!("bad scenario {v:?}")))?;
                            }
                            "predicted_ms" => {
                                entry.predicted_ms = parse_opt(v)
                                    .map_err(|_| bad(format!("bad predicted_ms {v:?}")))?;
                            }
                            "stripes" => {
                                entry.stripes =
                                    parse_opt(v).map_err(|_| bad(format!("bad stripes {v:?}")))?;
                            }
                            "class" => {
                                entry.class = match v {
                                    "ok" => "ok",
                                    "tight" => "tight",
                                    "over" => "over",
                                    "-" => "-",
                                    other => return Err(bad(format!("bad class {other:?}"))),
                                };
                            }
                            "quantile" => {
                                if v != "-" && AdmissionPolicy::from_label(v).is_none() {
                                    return Err(bad(format!("bad quantile {v:?}")));
                                }
                                entry.quantile = v.to_string();
                            }
                            "digest" => {
                                entry.digest = if v == "-" {
                                    None
                                } else {
                                    Some(
                                        u64::from_str_radix(v, 16)
                                            .map_err(|_| bad(format!("bad digest {v:?}")))?,
                                    )
                                };
                            }
                            other => return Err(bad(format!("unknown ledger field {other:?}"))),
                        }
                    }
                    ledger.entries.push(entry);
                }
                Some("fault") => {
                    let key = toks.next().ok_or_else(|| TraceError::Syntax {
                        line,
                        message: "fault record needs a replay key".into(),
                    })?;
                    ledger.faults.push(key.to_string());
                }
                Some(other) => {
                    return Err(TraceError::Syntax {
                        line,
                        message: format!("unknown ledger record {other:?}"),
                    })
                }
                None => unreachable!("non-blank line has a first token"),
            }
        }
        Ok(ledger)
    }

    /// Compares the diffable plane of two ledgers: a human-readable list
    /// of differences, empty when they replay identically. Notes are
    /// never compared.
    pub fn diff(&self, other: &RunLedger) -> Vec<String> {
        let mut out = Vec::new();
        if self.entries.len() != other.entries.len() {
            out.push(format!(
                "entry count: {} vs {}",
                self.entries.len(),
                other.entries.len()
            ));
        }
        for (a, b) in self.entries.iter().zip(&other.entries) {
            if a == b {
                continue;
            }
            if a.replay_key() != b.replay_key() || a.seq != b.seq {
                out.push(format!(
                    "order: {} seq={} vs {} seq={}",
                    a.replay_key(),
                    a.seq,
                    b.replay_key(),
                    b.seq
                ));
                continue;
            }
            let key = a.replay_key();
            if a.arrival_ms != b.arrival_ms {
                out.push(format!(
                    "{key}: arrival_ms {} vs {}",
                    a.arrival_ms, b.arrival_ms
                ));
            }
            if a.submit != b.submit {
                out.push(format!(
                    "{key}: submit {} vs {}",
                    a.submit.name(),
                    b.submit.name()
                ));
            }
            if a.outcome != b.outcome {
                out.push(format!(
                    "{key}: outcome {} vs {}",
                    a.outcome.name(),
                    b.outcome.name()
                ));
            }
            if a.scenario != b.scenario {
                out.push(format!(
                    "{key}: scenario {:?} vs {:?}",
                    a.scenario, b.scenario
                ));
            }
            if a.predicted_ms != b.predicted_ms {
                out.push(format!(
                    "{key}: predicted_ms {:?} vs {:?}",
                    a.predicted_ms, b.predicted_ms
                ));
            }
            if a.stripes != b.stripes {
                out.push(format!("{key}: stripes {:?} vs {:?}", a.stripes, b.stripes));
            }
            if a.class != b.class {
                out.push(format!("{key}: class {} vs {}", a.class, b.class));
            }
            if a.quantile != b.quantile {
                out.push(format!("{key}: quantile {} vs {}", a.quantile, b.quantile));
            }
            if a.digest != b.digest {
                out.push(format!("{key}: digest {:?} vs {:?}", a.digest, b.digest));
            }
        }
        if self.faults != other.faults {
            out.push(format!(
                "fault keys: {:?} vs {:?}",
                self.faults, other.faults
            ));
        }
        out
    }
}

fn parse_replay_key(key: &str, line: usize) -> Result<(StreamId, usize), TraceError> {
    let bad = || TraceError::Syntax {
        line,
        message: format!("bad replay key {key:?}"),
    };
    let (s, f) = key.split_once('/').ok_or_else(bad)?;
    let stream = s.strip_prefix('s').and_then(|v| v.parse().ok());
    let frame = f.strip_prefix('f').and_then(|v| v.parse().ok());
    match (stream, frame) {
        (Some(stream), Some(frame)) => Ok((stream, frame)),
        _ => Err(bad()),
    }
}

fn parse_opt<T: std::str::FromStr>(v: &str) -> Result<Option<T>, ()> {
    if v == "-" {
        Ok(None)
    } else {
        v.parse().map(Some).map_err(|_| ())
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
    fn round_trips_through_text() {
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
        let parsed = RunLedger::parse(&text).unwrap();
        assert_eq!(parsed.entries, ledger.entries);
        assert_eq!(parsed.faults, ledger.faults);
        assert!(parsed.notes.is_empty()); // notes drop on parse
        assert!(parsed.diff(&ledger).is_empty()); // ...and never diff
    }

    #[test]
    fn diff_reports_changed_fields() {
        let mut a = RunLedger::default();
        a.entries.push(entry(0, 0, 0));
        let mut b = a.clone();
        b.entries[0].stripes = Some(2);
        b.entries[0].class = "over";
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d[0].contains("stripes"));
        assert!(d[1].contains("class"));
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn rejects_malformed_ledgers() {
        assert_eq!(RunLedger::parse(""), Err(TraceError::MissingHeader));
        assert!(matches!(
            RunLedger::parse("triplec-ledger v2\n"),
            Err(TraceError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            RunLedger::parse("triplec-ledger v1\nframe nonsense seq=0\n"),
            Err(TraceError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            RunLedger::parse("triplec-ledger v1\nwidget s0/f0\n"),
            Err(TraceError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            RunLedger::parse("triplec-ledger v1\nframe s0/f0 quantile=median\n"),
            Err(TraceError::Syntax { line: 2, .. })
        ));
        assert!(RunLedger::parse("triplec-ledger v1\nframe s0/f0 quantile=p97.5\n").is_ok());
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
