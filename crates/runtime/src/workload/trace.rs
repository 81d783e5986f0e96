//! The trace file format: versioned, hand-editable text describing a
//! replayable workload.
//!
//! A trace declares one or more streams, each with a frame-arrival
//! schedule (fixed cadence, bursty, or Poisson), a resolution, a content
//! profile (stent / surveillance / zoom-only), an optional scripted
//! scenario storm, and an optional seeded [`FaultPlan`]. The format
//! is line oriented:
//!
//! ```text
//! triplec-trace v1
//! # comments and blank lines are ignored
//! stream 0 profile=stent width=512 height=512 frames=40 seed=7 budget_ms=80
//! arrival 0 fixed period_ms=33.33
//! scenario 0 hold id=7 frames=10
//! scenario 0 thrash ids=0,7 period=1 cycles=8
//! faults 0 seed=99 drop_rate=0.05 delay_rate=0.02 delay_ms=5
//! ```
//!
//! `scenario … thrash` is authoring sugar: it expands into one held
//! segment per switch at parse time, so the canonical serialized form
//! ([`Trace::to_text`]) uses only `hold` lines and parsing a serialized
//! trace reproduces the parsed form exactly (property-tested).
//!
//! Every malformed, truncated, or version-skewed input is rejected with
//! a typed [`TraceError`] — parsing never panics.

use crate::faults::{FaultPlan, FaultPlanConfig};
use platform::bus::StreamId;
use rand::{Rng, SeedableRng};
use triplec::scenario::ScriptSegment;

/// The format version this build reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Header magic of a trace file.
const TRACE_MAGIC: &str = "triplec-trace";

/// Typed parse/validation error for traces. Carries the 1-based line
/// number where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input is empty or its first line is not a `triplec-trace`
    /// header.
    MissingHeader,
    /// The header names a version this build does not read.
    UnsupportedVersion {
        /// The version token found in the header.
        found: String,
    },
    /// A line could not be tokenized into the expected shape.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A directive referenced a stream that was never declared.
    UnknownStream {
        /// 1-based line number.
        line: usize,
        /// The undeclared stream id.
        stream: StreamId,
    },
    /// A stream id was declared twice.
    DuplicateStream {
        /// 1-based line number.
        line: usize,
        /// The re-declared stream id.
        stream: StreamId,
    },
    /// A well-formed line carried a semantically invalid value.
    Invalid {
        /// 1-based line number.
        line: usize,
        /// What was invalid.
        message: String,
    },
    /// The trace ended without the named stream getting an arrival model
    /// (a truncated file).
    MissingArrival {
        /// The stream lacking an `arrival` line.
        stream: StreamId,
    },
    /// The trace declares no streams at all.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MissingHeader => write!(f, "missing trace header"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found:?}")
            }
            TraceError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            TraceError::UnknownStream { line, stream } => {
                write!(f, "line {line}: undeclared stream {stream}")
            }
            TraceError::DuplicateStream { line, stream } => {
                write!(f, "line {line}: duplicate stream {stream}")
            }
            TraceError::Invalid { line, message } => write!(f, "line {line}: {message}"),
            TraceError::MissingArrival { stream } => {
                write!(f, "stream {stream} has no arrival model (truncated trace?)")
            }
            TraceError::Empty => write!(f, "trace declares no streams"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Content profile of a stream: which synthetic sequence shape and
/// application configuration the replay uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamProfile {
    /// The paper's stent-enhancement workload (default synthetic
    /// angiography content).
    Stent,
    /// Surveillance-style content: lower contrast with a hidden-device
    /// episode mid-sequence, so tracking is lost and re-acquired.
    Surveillance,
    /// Zoom-only service: registration is forced successful so ENH/ZOOM
    /// run every frame (scenario 4 held for the whole stream unless the
    /// trace scripts something else).
    ZoomOnly,
}

impl StreamProfile {
    /// Stable name used in trace files.
    pub fn name(&self) -> &'static str {
        match self {
            StreamProfile::Stent => "stent",
            StreamProfile::Surveillance => "surveillance",
            StreamProfile::ZoomOnly => "zoom_only",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "stent" => Some(StreamProfile::Stent),
            "surveillance" => Some(StreamProfile::Surveillance),
            "zoom_only" => Some(StreamProfile::ZoomOnly),
            _ => None,
        }
    }
}

/// When frames of one stream arrive at the service ingress.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Fixed cadence: frame `i` arrives at `i * period_ms`.
    Fixed {
        /// Inter-frame period, ms.
        period_ms: f64,
    },
    /// Bursty / VBR: `burst_len` frames at `period_ms` spacing, then a
    /// `gap_ms` pause, repeating.
    Burst {
        /// Intra-burst inter-frame period, ms.
        period_ms: f64,
        /// Frames per burst.
        burst_len: usize,
        /// Pause between bursts, ms.
        gap_ms: f64,
    },
    /// Poisson arrivals: seeded exponential inter-arrival times at
    /// `rate_hz` (times are quantized to 1 µs so serialized schedules
    /// replay identically).
    Poisson {
        /// Mean arrival rate, Hz.
        rate_hz: f64,
        /// Seed of the inter-arrival draw.
        seed: u64,
    },
}

impl ArrivalModel {
    /// Expands the model into per-frame arrival times (ms, ascending,
    /// quantized to 1 µs). Deterministic per model + seed.
    fn arrival_times_ms(&self, frames: usize) -> Vec<f64> {
        let quant = |t: f64| (t * 1000.0).round() / 1000.0;
        match *self {
            ArrivalModel::Fixed { period_ms } => {
                (0..frames).map(|i| quant(i as f64 * period_ms)).collect()
            }
            ArrivalModel::Burst {
                period_ms,
                burst_len,
                gap_ms,
            } => {
                let burst_len = burst_len.max(1);
                (0..frames)
                    .map(|i| {
                        let burst = i / burst_len;
                        let within = i % burst_len;
                        quant(
                            burst as f64 * (burst_len as f64 * period_ms + gap_ms)
                                + within as f64 * period_ms,
                        )
                    })
                    .collect()
            }
            ArrivalModel::Poisson { rate_hz, seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                (0..frames)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        t += -(1.0 - u).ln() / rate_hz * 1000.0;
                        quant(t)
                    })
                    .collect()
            }
        }
    }
}

/// One stream's declaration within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTrace {
    /// Stream id (dense, ascending from 0 — the service tier's order).
    pub id: StreamId,
    /// Content profile.
    pub profile: StreamProfile,
    /// Frame width, pixels.
    pub width: usize,
    /// Frame height, pixels.
    pub height: usize,
    /// Number of frames.
    pub frames: usize,
    /// Sequence seed.
    pub seed: u64,
    /// Explicit latency budget, ms (keeps planning deterministic — the
    /// profiled first-frame budget depends on wall time).
    pub budget_ms: f64,
    /// Arrival schedule.
    pub arrival: ArrivalModel,
    /// Scripted scenario storm (empty = content-derived switches).
    pub script: Vec<ScriptSegment>,
    /// Seeded fault plan (None = clean run).
    pub faults: Option<FaultPlan>,
}

/// A parsed workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Format version (currently always [`TRACE_VERSION`]).
    pub version: u32,
    /// Streams in id order.
    pub streams: Vec<StreamTrace>,
}

/// One scheduled frame arrival of the merged, cross-stream schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled arrival time, ms from trace start.
    pub at_ms: f64,
    /// Target stream.
    pub stream: StreamId,
    /// Frame index within the stream.
    pub frame: usize,
}

impl Trace {
    /// Total frames across all streams.
    pub fn total_frames(&self) -> usize {
        self.streams.iter().map(|s| s.frames).sum()
    }

    /// The merged arrival schedule, sorted by `(time, stream, frame)`:
    /// the deterministic global submit order replays follow.
    pub fn schedule(&self) -> Vec<Arrival> {
        let mut all = Vec::with_capacity(self.total_frames());
        for s in &self.streams {
            for (frame, at_ms) in s.arrival.arrival_times_ms(s.frames).into_iter().enumerate() {
                all.push(Arrival {
                    at_ms,
                    stream: s.id,
                    frame,
                });
            }
        }
        all.sort_by(|a, b| {
            a.at_ms
                .total_cmp(&b.at_ms)
                .then(a.stream.cmp(&b.stream))
                .then(a.frame.cmp(&b.frame))
        });
        all
    }

    /// Serializes to the canonical text form (only `hold` scenario
    /// lines; all optional fields written out). `parse(to_text(t)) == t`
    /// for every valid trace (property-tested).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{TRACE_MAGIC} v{}", self.version);
        for s in &self.streams {
            let _ = writeln!(
                out,
                "stream {} profile={} width={} height={} frames={} seed={} budget_ms={}",
                s.id,
                s.profile.name(),
                s.width,
                s.height,
                s.frames,
                s.seed,
                s.budget_ms
            );
            match &s.arrival {
                ArrivalModel::Fixed { period_ms } => {
                    let _ = writeln!(out, "arrival {} fixed period_ms={}", s.id, period_ms);
                }
                ArrivalModel::Burst {
                    period_ms,
                    burst_len,
                    gap_ms,
                } => {
                    let _ = writeln!(
                        out,
                        "arrival {} burst period_ms={} burst_len={} gap_ms={}",
                        s.id, period_ms, burst_len, gap_ms
                    );
                }
                ArrivalModel::Poisson { rate_hz, seed } => {
                    let _ = writeln!(
                        out,
                        "arrival {} poisson rate_hz={} seed={}",
                        s.id, rate_hz, seed
                    );
                }
            }
            for seg in &s.script {
                let _ = writeln!(
                    out,
                    "scenario {} hold id={} frames={}",
                    s.id, seg.scenario, seg.frames
                );
            }
            if let Some(plan) = &s.faults {
                let f = plan.config();
                let _ = writeln!(
                    out,
                    "faults {} seed={} panic_rate={} channel_rate={} delay_rate={} \
                     delay_ms={} drop_rate={} corrupt_rate={}",
                    s.id,
                    plan.seed(),
                    f.panic_rate,
                    f.channel_rate,
                    f.delay_rate,
                    f.delay_ms,
                    f.drop_rate,
                    f.corrupt_rate
                );
            }
        }
        out
    }

    /// Parses the text form. Rejects malformed, truncated, and
    /// version-skewed input with a typed [`TraceError`]; never panics.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .by_ref()
            .find(|(_, l)| !ignorable(l))
            .ok_or(TraceError::MissingHeader)?;
        let version = parse_header(header, TRACE_MAGIC)?;

        let mut streams: Vec<StreamTrace> = Vec::new();
        let mut arrivals_seen: Vec<bool> = Vec::new();
        for (i, raw) in lines {
            let line = i + 1; // 1-based for messages
            if ignorable(raw) {
                continue;
            }
            let mut toks = raw.split_whitespace();
            let directive = toks.next().expect("non-blank line has a first token");
            let id = parse_id(toks.next(), line)?;
            let kv: Vec<&str> = toks.collect();
            match directive {
                "stream" => {
                    if streams.iter().any(|s| s.id == id) {
                        return Err(TraceError::DuplicateStream { line, stream: id });
                    }
                    if id as usize != streams.len() {
                        return Err(TraceError::Invalid {
                            line,
                            message: format!(
                                "stream ids must be dense and ascending (expected {}, got {id})",
                                streams.len()
                            ),
                        });
                    }
                    let fields = Fields::new(&kv, line)?;
                    let profile_name = fields.get_str("profile", line)?;
                    let profile =
                        StreamProfile::from_name(profile_name).ok_or(TraceError::Invalid {
                            line,
                            message: format!("unknown profile {profile_name:?}"),
                        })?;
                    let st = StreamTrace {
                        id,
                        profile,
                        width: fields.get_usize("width", line)?,
                        height: fields.get_usize("height", line)?,
                        frames: fields.get_usize("frames", line)?,
                        seed: fields.get_u64("seed", line)?,
                        budget_ms: fields.get_f64_or("budget_ms", 80.0, line)?,
                        arrival: ArrivalModel::Fixed { period_ms: 0.0 }, // placeholder
                        script: Vec::new(),
                        faults: None,
                    };
                    if st.width < 32 || st.height < 32 {
                        return Err(TraceError::Invalid {
                            line,
                            message: "frame dimensions must be at least 32x32".into(),
                        });
                    }
                    if st.frames == 0 {
                        return Err(TraceError::Invalid {
                            line,
                            message: "stream must have at least one frame".into(),
                        });
                    }
                    if st.budget_ms <= 0.0 || st.budget_ms.is_nan() {
                        return Err(TraceError::Invalid {
                            line,
                            message: "budget_ms must be positive".into(),
                        });
                    }
                    streams.push(st);
                    arrivals_seen.push(false);
                }
                "arrival" => {
                    let idx = stream_index(&streams, id, line)?;
                    let kind = kv.first().copied().ok_or_else(|| TraceError::Syntax {
                        line,
                        message: "arrival needs a model kind".into(),
                    })?;
                    let fields = Fields::new(&kv[1..], line)?;
                    let model = match kind {
                        "fixed" => ArrivalModel::Fixed {
                            period_ms: fields.get_f64("period_ms", line)?,
                        },
                        "burst" => ArrivalModel::Burst {
                            period_ms: fields.get_f64("period_ms", line)?,
                            burst_len: fields.get_usize("burst_len", line)?,
                            gap_ms: fields.get_f64("gap_ms", line)?,
                        },
                        "poisson" => ArrivalModel::Poisson {
                            rate_hz: fields.get_f64("rate_hz", line)?,
                            seed: fields.get_u64("seed", line)?,
                        },
                        other => {
                            return Err(TraceError::Syntax {
                                line,
                                message: format!("unknown arrival model {other:?}"),
                            })
                        }
                    };
                    let ok = match &model {
                        ArrivalModel::Fixed { period_ms } => *period_ms >= 0.0,
                        ArrivalModel::Burst {
                            period_ms,
                            burst_len,
                            gap_ms,
                        } => *period_ms >= 0.0 && *burst_len > 0 && *gap_ms >= 0.0,
                        ArrivalModel::Poisson { rate_hz, .. } => *rate_hz > 0.0,
                    };
                    if !ok {
                        return Err(TraceError::Invalid {
                            line,
                            message: "arrival model parameters out of range".into(),
                        });
                    }
                    streams[idx].arrival = model;
                    arrivals_seen[idx] = true;
                }
                "scenario" => {
                    let idx = stream_index(&streams, id, line)?;
                    let kind = kv.first().copied().ok_or_else(|| TraceError::Syntax {
                        line,
                        message: "scenario needs hold or thrash".into(),
                    })?;
                    let fields = Fields::new(&kv[1..], line)?;
                    match kind {
                        "hold" => {
                            let sid = fields.get_u64("id", line)? as u8;
                            let frames = fields.get_usize("frames", line)?;
                            push_segment(&mut streams[idx].script, sid, frames, line)?;
                        }
                        "thrash" => {
                            let ids_raw = fields.get_str("ids", line)?;
                            let period = fields.get_usize("period", line)?;
                            let cycles = fields.get_usize("cycles", line)?;
                            let mut ids = Vec::new();
                            for part in ids_raw.split(',') {
                                let v: u8 = part.parse().map_err(|_| TraceError::Syntax {
                                    line,
                                    message: format!("bad scenario id {part:?}"),
                                })?;
                                ids.push(v);
                            }
                            if ids.is_empty() || cycles == 0 {
                                return Err(TraceError::Invalid {
                                    line,
                                    message: "thrash needs ids and at least one cycle".into(),
                                });
                            }
                            for _ in 0..cycles {
                                for &sid in &ids {
                                    push_segment(&mut streams[idx].script, sid, period, line)?;
                                }
                            }
                        }
                        other => {
                            return Err(TraceError::Syntax {
                                line,
                                message: format!("unknown scenario directive {other:?}"),
                            })
                        }
                    }
                }
                "faults" => {
                    let idx = stream_index(&streams, id, line)?;
                    let fields = Fields::new(&kv, line)?;
                    let seed = fields.get_u64("seed", line)?;
                    let f = FaultPlanConfig {
                        panic_rate: fields.get_f64_or("panic_rate", 0.0, line)?,
                        channel_rate: fields.get_f64_or("channel_rate", 0.0, line)?,
                        delay_rate: fields.get_f64_or("delay_rate", 0.0, line)?,
                        delay_ms: fields.get_f64_or("delay_ms", 0.0, line)?,
                        drop_rate: fields.get_f64_or("drop_rate", 0.0, line)?,
                        corrupt_rate: fields.get_f64_or("corrupt_rate", 0.0, line)?,
                    };
                    for (name, rate) in [
                        ("panic_rate", f.panic_rate),
                        ("channel_rate", f.channel_rate),
                        ("delay_rate", f.delay_rate),
                        ("drop_rate", f.drop_rate),
                        ("corrupt_rate", f.corrupt_rate),
                    ] {
                        if !(0.0..=1.0).contains(&rate) {
                            return Err(TraceError::Invalid {
                                line,
                                message: format!("{name} must be within [0, 1]"),
                            });
                        }
                    }
                    if f.delay_ms < 0.0 {
                        return Err(TraceError::Invalid {
                            line,
                            message: "delay_ms must be non-negative".into(),
                        });
                    }
                    streams[idx].faults = Some(FaultPlan::new(seed, f));
                }
                other => {
                    return Err(TraceError::Syntax {
                        line,
                        message: format!("unknown directive {other:?}"),
                    })
                }
            }
        }
        if streams.is_empty() {
            return Err(TraceError::Empty);
        }
        for (idx, seen) in arrivals_seen.iter().enumerate() {
            if !seen {
                return Err(TraceError::MissingArrival {
                    stream: streams[idx].id,
                });
            }
        }
        Ok(Trace { version, streams })
    }
}

fn ignorable(line: &str) -> bool {
    let t = line.trim();
    t.is_empty() || t.starts_with('#')
}

/// Parses a `"<magic> v<N>"` header.
fn parse_header(header: &str, magic: &str) -> Result<u32, TraceError> {
    let mut toks = header.split_whitespace();
    if toks.next() != Some(magic) {
        return Err(TraceError::MissingHeader);
    }
    let vtok = toks.next().unwrap_or("");
    let version: u32 = vtok
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TraceError::UnsupportedVersion {
            found: vtok.to_string(),
        })?;
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: vtok.to_string(),
        });
    }
    Ok(version)
}

fn parse_id(tok: Option<&str>, line: usize) -> Result<StreamId, TraceError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| TraceError::Syntax {
            line,
            message: "directive needs a stream id".into(),
        })
}

fn stream_index(streams: &[StreamTrace], id: StreamId, line: usize) -> Result<usize, TraceError> {
    streams
        .iter()
        .position(|s| s.id == id)
        .ok_or(TraceError::UnknownStream { line, stream: id })
}

fn push_segment(
    script: &mut Vec<ScriptSegment>,
    scenario: u8,
    frames: usize,
    line: usize,
) -> Result<(), TraceError> {
    if scenario >= 8 {
        return Err(TraceError::Invalid {
            line,
            message: format!("scenario id {scenario} out of range (0..8)"),
        });
    }
    if frames == 0 {
        return Err(TraceError::Invalid {
            line,
            message: "zero-length scenario segment".into(),
        });
    }
    script.push(ScriptSegment { scenario, frames });
    Ok(())
}

/// Key=value field list of one directive line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn new(tokens: &[&'a str], line: usize) -> Result<Self, TraceError> {
        let mut pairs = Vec::with_capacity(tokens.len());
        for t in tokens {
            let (k, v) = t.split_once('=').ok_or_else(|| TraceError::Syntax {
                line,
                message: format!("expected key=value, got {t:?}"),
            })?;
            pairs.push((k, v));
        }
        Ok(Self { pairs })
    }

    fn raw(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn get_str(&self, key: &str, line: usize) -> Result<&'a str, TraceError> {
        self.raw(key).ok_or_else(|| TraceError::Syntax {
            line,
            message: format!("missing field {key}"),
        })
    }

    fn get_usize(&self, key: &str, line: usize) -> Result<usize, TraceError> {
        self.parse_field(key, line)
    }

    fn get_u64(&self, key: &str, line: usize) -> Result<u64, TraceError> {
        self.parse_field(key, line)
    }

    fn get_f64(&self, key: &str, line: usize) -> Result<f64, TraceError> {
        let v: f64 = self.parse_field(key, line)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(TraceError::Invalid {
                line,
                message: format!("{key} must be finite"),
            })
        }
    }

    fn get_f64_or(&self, key: &str, default: f64, line: usize) -> Result<f64, TraceError> {
        match self.raw(key) {
            None => Ok(default),
            Some(_) => self.get_f64(key, line),
        }
    }

    fn parse_field<T: std::str::FromStr>(&self, key: &str, line: usize) -> Result<T, TraceError> {
        let raw = self.get_str(key, line)?;
        raw.parse().map_err(|_| TraceError::Syntax {
            line,
            message: format!("bad value for {key}: {raw:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        "triplec-trace v1\n\
         # demo\n\
         stream 0 profile=stent width=128 height=128 frames=6 seed=7 budget_ms=80\n\
         arrival 0 fixed period_ms=33.33\n\
         scenario 0 thrash ids=0,7 period=1 cycles=2\n\
         stream 1 profile=zoom_only width=64 height=64 frames=4 seed=3\n\
         arrival 1 poisson rate_hz=30 seed=5\n\
         faults 1 seed=9 drop_rate=0.25\n"
    }

    #[test]
    fn parses_and_round_trips() {
        let t = Trace::parse(sample()).unwrap();
        assert_eq!(t.streams.len(), 2);
        assert_eq!(t.streams[0].script.len(), 4); // thrash expanded
        assert_eq!(t.streams[1].budget_ms, 80.0); // default
        assert_eq!(t.streams[1].faults.unwrap().config().drop_rate, 0.25);
        let t2 = Trace::parse(&t.to_text()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn schedule_is_sorted_and_complete() {
        let t = Trace::parse(sample()).unwrap();
        let sched = t.schedule();
        assert_eq!(sched.len(), t.total_frames());
        for w in sched.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms);
        }
        // per-stream frames appear in index order
        for s in &t.streams {
            let frames: Vec<usize> = sched
                .iter()
                .filter(|a| a.stream == s.id)
                .map(|a| a.frame)
                .collect();
            assert_eq!(frames, (0..s.frames).collect::<Vec<_>>());
        }
    }

    #[test]
    fn poisson_arrivals_are_deterministic() {
        let m = ArrivalModel::Poisson {
            rate_hz: 30.0,
            seed: 11,
        };
        assert_eq!(m.arrival_times_ms(20), m.arrival_times_ms(20));
        let times = m.arrival_times_ms(20);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rejects_bad_input_with_typed_errors() {
        assert_eq!(Trace::parse(""), Err(TraceError::MissingHeader));
        assert_eq!(
            Trace::parse("triplec-trace v9\n"),
            Err(TraceError::UnsupportedVersion { found: "v9".into() })
        );
        assert_eq!(Trace::parse("triplec-trace v1\n"), Err(TraceError::Empty));
        // truncated: stream without arrival
        let truncated = "triplec-trace v1\n\
                         stream 0 profile=stent width=64 height=64 frames=2 seed=1\n";
        assert_eq!(
            Trace::parse(truncated),
            Err(TraceError::MissingArrival { stream: 0 })
        );
        // sparse ids
        let sparse = "triplec-trace v1\n\
                      stream 3 profile=stent width=64 height=64 frames=2 seed=1\n";
        assert!(matches!(
            Trace::parse(sparse),
            Err(TraceError::Invalid { .. })
        ));
        // unknown stream reference
        let unknown = "triplec-trace v1\n\
                       stream 0 profile=stent width=64 height=64 frames=2 seed=1\n\
                       arrival 1 fixed period_ms=10\n";
        assert_eq!(
            Trace::parse(unknown),
            Err(TraceError::UnknownStream { line: 3, stream: 1 })
        );
        // garbage value
        let garbage = "triplec-trace v1\n\
                       stream 0 profile=stent width=wat height=64 frames=2 seed=1\n";
        assert!(matches!(
            Trace::parse(garbage),
            Err(TraceError::Syntax { line: 2, .. })
        ));
    }
}
