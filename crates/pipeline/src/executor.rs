//! Frame-by-frame execution of the dynamic flow graph.
//!
//! Each frame walks the Fig. 2 graph: the three data-dependent switches
//! select the active task group, every task's computation time is
//! measured, and the frame's latency is the wall time from entry to the
//! finished output. A striped RDG or GW EXT sweep runs its bands on the
//! worker pool; every other task runs on the calling thread.

use crate::app::{structure_probe, AppConfig, AppState};
use imaging::couples::cpls_select;

use imaging::guidewire::{corridor_box, gw_extract_with};
use imaging::image::{ImageU16, Roi};
use imaging::markers::mkx_extract;
use imaging::parallel::{PoolError, StripeFault, StripePool};
use imaging::registration::register;
use imaging::ridge::{rdg_banded, ridge_response_banded, RdgOutput, RdgTimes};
use imaging::roi_est::estimate_roi;
use imaging::zoom::zoom_band_with;
use platform::bus::{DegradeMode, EventBus, FaultKind, FrameEvent, StreamId};
use platform::profile::time_ms;
use platform::trace::FrameRecord;
use std::time::Instant;
use triplec::scenario::Scenario;

/// How the frame's tasks are partitioned onto the worker pool this frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPolicy {
    /// Stripe count of the RDG task (1 = serial).
    pub rdg_stripes: usize,
    /// Stripe count of GW EXT's response sweep.
    pub aux_stripes: usize,
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        Self {
            rdg_stripes: 1,
            aux_stripes: 1,
        }
    }
}

/// Tasks that are data-partitioned (striped) onto the worker pool; the
/// remaining tasks are feature-level (CPLS SEL, REG, ROI EST) and stay
/// serial within a frame. So does MKX EXT, though its response sweep is
/// band-safe (the fused sweep RDG stripes): its peak, threshold scan and
/// pruning are global, and it is heavy only on first frames, which the
/// manager does not stripe yet — it stays one job until it does.
///
/// GW EXT's entry covers the response sweep over its corridor's box (the
/// scales RDG's accumulator lacks there, or all of them); its path search
/// is serial. ENH and ZOOM run as one call each on the calling thread:
/// together about 0.2 ms on a tracked 1024² frame, about one pool round
/// trip, so dispatching their bands would not pay.
pub const STRIPABLE_TASKS: [&str; 3] = ["RDG_FULL", "RDG_ROI", "GW_EXT"];

/// Faults to inject into one frame's execution (all disabled by default).
///
/// Produced per frame by the runtime's seeded fault plan. The executor
/// injects them at the stripe-dispatch boundary, where a failed attempt
/// has not yet written any pixel state, so a clean retry (or the serial
/// fallback) stays bit-identical to an unfaulted frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameFaults {
    /// Panic this many stripe jobs of the first real RDG dispatch.
    pub rdg_panic_jobs: usize,
    /// Fail this many leading RDG dispatch attempts with a transient
    /// pool-channel error (consumed before any panic injection fires).
    pub rdg_channel_errors: u32,
    /// Inflate the frame by sleeping this many milliseconds, recorded as
    /// a `FAULT_DELAY` pseudo-task so latency budgets and overrun
    /// policies observe it.
    pub stage_delay_ms: f64,
}

impl FrameFaults {
    /// True when any fault is armed for this frame.
    pub fn any(&self) -> bool {
        self.rdg_panic_jobs > 0 || self.rdg_channel_errors > 0 || self.stage_delay_ms > 0.0
    }
}

/// Bounded-retry policy for a striped stage whose dispatch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRetry {
    /// Clean re-dispatches after a failed attempt before giving up.
    pub max_retries: u32,
    /// Once retries are exhausted, fall back to the bit-identical serial
    /// path (emitting [`DegradeMode::SerialFallback`]) instead of failing
    /// the frame.
    pub serial_fallback: bool,
}

impl Default for StageRetry {
    fn default() -> Self {
        Self {
            max_retries: 2,
            serial_fallback: true,
        }
    }
}

/// What a frame without a recovery context runs with: nothing armed, no
/// retry, no serial fallback.
const UNARMED: FrameFaults = FrameFaults {
    rdg_panic_jobs: 0,
    rdg_channel_errors: 0,
    stage_delay_ms: 0.0,
};
const NO_RETRY: StageRetry = StageRetry {
    max_retries: 0,
    serial_fallback: false,
};

/// A frame that could not complete even after retries. Only reachable
/// when [`StageRetry::serial_fallback`] is disabled.
#[derive(Debug, Clone)]
pub struct FrameError {
    /// Frame index that failed.
    pub frame: usize,
    /// Task name of the stage that failed.
    pub stage: &'static str,
    /// The final dispatch error.
    pub error: PoolError,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {}: stage {} failed after retries: {}",
            self.frame, self.stage, self.error
        )
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

fn fault_kind_of(err: &PoolError) -> FaultKind {
    match err {
        PoolError::JobPanicked(_) => FaultKind::WorkerPanic,
        PoolError::Disconnected => FaultKind::ChannelError,
    }
}

/// Publishes an event when an observer bus is attached.
fn emit(
    observer: &mut Option<(StreamId, &mut EventBus)>,
    make: impl FnOnce(StreamId) -> FrameEvent,
) {
    if let Some((stream, bus)) = observer {
        bus.emit(make(*stream));
    }
}

/// Result of processing one frame.
pub struct FrameOutput {
    /// Trace record: task times (serial work), scenario, measured latency.
    pub record: FrameRecord,
    /// The scenario the frame executed.
    pub scenario: Scenario,
    /// ROI in effect for the *next* frame (if tracking).
    pub roi: Option<Roi>,
    /// ROI processed *this* frame, kilopixels (covariate for Eq. 3).
    pub roi_kpixels: f64,
    /// The marker couple selected this frame.
    pub couple_found: bool,
    /// The enhanced, zoomed output image (only on successful registration).
    pub display: Option<ImageU16>,
}

/// Processes one frame through the dynamic flow graph.
///
/// Striped stages dispatch onto the process-global [`StripePool`]; use
/// [`process_frame_on`] to pin the frame to a specific pool (e.g. a
/// service-tier shard).
pub fn process_frame(
    frame_index: usize,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
    policy: &ExecutionPolicy,
) -> FrameOutput {
    process_frame_on(StripePool::global(), frame_index, frame, state, cfg, policy)
}

/// Like [`process_frame`], dispatching every striped stage onto `pool`
/// instead of the process-global one. Pixel outputs are bit-identical
/// regardless of which pool executes the stripes.
pub fn process_frame_on(
    pool: &StripePool,
    frame_index: usize,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
    policy: &ExecutionPolicy,
) -> FrameOutput {
    process_frame_inner(
        pool,
        frame_index,
        frame,
        state,
        cfg,
        policy,
        &mut None,
        None,
        StripeFault::default(),
    )
    .expect("infallible without fault recovery")
}

/// Like [`process_frame_on`], additionally emitting a
/// [`platform::bus::FrameEvent::StageExecuted`] onto `bus` for every
/// data-parallel (striped) stage the frame runs. Pixel outputs and trace
/// records are identical to the unobserved path.
#[allow(clippy::too_many_arguments)]
pub fn process_frame_observed_on(
    pool: &StripePool,
    frame_index: usize,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
    policy: &ExecutionPolicy,
    stream: StreamId,
    bus: &mut EventBus,
) -> FrameOutput {
    process_frame_inner(
        pool,
        frame_index,
        frame,
        state,
        cfg,
        policy,
        &mut Some((stream, bus)),
        None,
        StripeFault::default(),
    )
    .expect("infallible without fault recovery")
}

/// Like [`process_frame_observed_on`], with deterministic fault
/// injection and graceful degradation.
///
/// Every fault kind armed in `faults` is announced with a
/// [`FrameEvent::FaultInjected`] and is guaranteed a terminal event by
/// the time this returns: a [`FrameEvent::Recovered`] when a clean retry
/// (or absorption) delivered the nominal result, or a
/// [`FrameEvent::DegradedMode`] when the stage fell back to its serial
/// path. Failed dispatch attempts emit [`FrameEvent::RetryAttempted`].
/// `Err` is only possible when `retry.serial_fallback` is disabled.
///
/// Pixel outputs are bit-identical to [`process_frame`] for every frame
/// this returns `Ok` for: injected stripe faults fire before any band is
/// written, so retries and the serial fallback see pristine state.
/// Recovery semantics do not depend on which pool executes the stripes.
#[allow(clippy::too_many_arguments)]
pub fn process_frame_recovering_on(
    pool: &StripePool,
    frame_index: usize,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
    policy: &ExecutionPolicy,
    stream: StreamId,
    bus: &mut EventBus,
    faults: FrameFaults,
    retry: &StageRetry,
) -> Result<FrameOutput, FrameError> {
    process_frame_inner(
        pool,
        frame_index,
        frame,
        state,
        cfg,
        policy,
        &mut Some((stream, bus)),
        Some((&faults, retry)),
        StripeFault::default(),
    )
}

/// Books one banded call (an RDG detection pass or GW EXT's sweep) and
/// returns all of its work, ms: the serial sections plus every band. A
/// call of more than one band is a parallel stage and is reported to the
/// observer with `wall_ms`, the dispatch's measured wall time; a one-band
/// call is the serial task it always was.
fn banded_stage(
    times: &RdgTimes,
    wall_ms: f64,
    task: &'static str,
    observer: &mut Option<(StreamId, &mut EventBus)>,
    frame_index: usize,
) -> f64 {
    let band_ms: f64 = times.band_ms.iter().sum();
    if times.band_ms.len() > 1 {
        emit(observer, |stream| FrameEvent::StageExecuted {
            stream,
            frame: frame_index,
            task,
            jobs: times.band_ms.len(),
            serial_ms: band_ms,
            makespan_ms: wall_ms,
        });
    }
    times.serial_ms + band_ms
}

/// Runs one banded dispatch under the frame's retry policy. `attempt`
/// dispatches at the stripe count it is given; each failure is retried
/// with a clean dispatch up to `retry.max_retries` times, and exhaustion
/// falls back to one band, which has no dispatch left to fail and the same
/// pixels, or fails the frame when the policy has no fallback.
///
/// `owed` holds the armed fault kinds that wait for this dispatch to
/// consume them. Once an attempt has failed they are drained with the
/// terminal event: `Recovered` when a retry delivered, `DegradedMode` on the
/// fallback. A failure nothing was armed for gets its own terminal event.
fn dispatch_recovering<T>(
    task: &'static str,
    frame_index: usize,
    mut stripes: usize,
    retry: &StageRetry,
    owed: &mut Vec<FaultKind>,
    observer: &mut Option<(StreamId, &mut EventBus)>,
    mut attempt: impl FnMut(usize) -> Result<T, PoolError>,
) -> Result<T, FrameError> {
    let mut attempts = 0u32;
    // kind of the last failed attempt while its terminal event is owed
    let mut failed: Option<FaultKind> = None;
    let out = loop {
        match attempt(stripes) {
            Ok(out) => break out,
            Err(err) => {
                let kind = fault_kind_of(&err);
                if attempts < retry.max_retries {
                    attempts += 1;
                    failed = Some(kind);
                    emit(observer, |stream| FrameEvent::RetryAttempted {
                        stream,
                        frame: frame_index,
                        kind,
                        attempt: attempts,
                    });
                } else if retry.serial_fallback {
                    if owed.is_empty() {
                        owed.push(kind);
                    }
                    for cause in owed.drain(..) {
                        emit(observer, |stream| FrameEvent::DegradedMode {
                            stream,
                            frame: frame_index,
                            mode: DegradeMode::SerialFallback,
                            cause,
                        });
                    }
                    failed = None;
                    stripes = 1;
                } else {
                    return Err(FrameError {
                        frame: frame_index,
                        stage: task,
                        error: err,
                    });
                }
            }
        }
    };
    if let Some(last_kind) = failed {
        if owed.is_empty() {
            owed.push(last_kind);
        }
        for kind in owed.drain(..) {
            emit(observer, |stream| FrameEvent::Recovered {
                stream,
                frame: frame_index,
                kind,
                attempts,
            });
        }
    }
    Ok(out)
}

/// `gw_fault` is injected into GW EXT's first sweep dispatch (testing
/// only, like every [`StripeFault`]).
#[allow(clippy::too_many_arguments)]
fn process_frame_inner(
    pool: &StripePool,
    frame_index: usize,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
    policy: &ExecutionPolicy,
    observer: &mut Option<(StreamId, &mut EventBus)>,
    recovery: Option<(&FrameFaults, &StageRetry)>,
    mut gw_fault: StripeFault,
) -> Result<FrameOutput, FrameError> {
    let started = Instant::now();
    let (w, h) = frame.dims();
    let mut task_times: Vec<(&'static str, f64)> = Vec::with_capacity(9);

    // --- fault arming ------------------------------------------------
    // Every armed fault kind is announced up front and owed a terminal
    // `Recovered`/`DegradedMode` event (or an `Err` return) by the end
    // of the frame, so replay logs pair injections and outcomes 1:1.
    // Pool-targeting kinds wait here until the striped RDG dispatch
    // consumes them; a frame with no such dispatch absorbs them with a
    // zero-attempt `Recovered` in the bookkeeping section.
    //
    // Without a recovery context the frame runs unarmed with zero retries
    // and no serial fallback, so a genuine pool error comes back as `Err`
    // and surfaces through the infallible wrappers' `expect`.
    let (faults, retry) = recovery.unwrap_or((&UNARMED, &NO_RETRY));
    let mut pending_pool_kinds: Vec<FaultKind> = Vec::new();
    if faults.rdg_channel_errors > 0 {
        pending_pool_kinds.push(FaultKind::ChannelError);
    }
    if faults.rdg_panic_jobs > 0 {
        pending_pool_kinds.push(FaultKind::WorkerPanic);
    }
    for &kind in &pending_pool_kinds {
        emit(observer, |stream| FrameEvent::FaultInjected {
            stream,
            frame: frame_index,
            kind,
        });
    }
    if faults.stage_delay_ms > 0.0 {
        emit(observer, |stream| FrameEvent::FaultInjected {
            stream,
            frame: frame_index,
            kind: FaultKind::StageDelay,
        });
    }

    // Scripted scenario storms force the three switches for frames a
    // script covers (work ROIs, registration state and couple tracking
    // keep their natural bookkeeping — only the switch decisions and the
    // reported scenario follow the script). `None` leaves every switch
    // data-dependent, bit-identical to the unscripted path.
    let forced = cfg
        .scenario_script
        .as_ref()
        .and_then(|s| s.scenario_at(frame_index));

    // --- switch 1: RDG DETECTION --------------------------------------
    let probe = structure_probe(frame, cfg.probe_block);
    let rdg_active = forced.map_or(probe > cfg.structure_threshold, |s| s.rdg_active);
    // coarse-to-fine adaptation: heavy content triggers the fine scales.
    // Deciding from the whole-frame probe keeps serial and striped
    // executions identical.
    state.fine_active = cfg.fine_scales_active(probe, state.fine_active);
    let mut rdg_cfg = cfg.rdg.clone();
    rdg_cfg.fine_enabled = state.fine_active;

    // --- switch 2 (granularity): ROI ESTIMATED ------------------------
    // A forced `roi_estimated` without a tracked ROI still works the full
    // frame; the tracking tasks additionally need a couple to run, so a
    // coupleless forced-ROI frame reports the scripted scenario without
    // executing ROI_EST/GW_EXT (documented script semantics).
    let roi_estimated = forced.map_or(state.current_roi.is_some(), |s| s.roi_estimated);
    let work_roi = state.current_roi.unwrap_or_else(|| frame.full_roi());
    let roi_kpixels = work_roi.area() as f64 / 1000.0;

    // --- RDG ------------------------------------------------------------
    // Dispatched to the persistent worker pool as `rdg_stripes` row bands
    // (one band runs inline on this thread). Armed pool faults fire on the
    // early attempts (channel errors first, then the panic batch) and the
    // dispatch recovers by the frame's retry policy.
    let rdg_out: Option<RdgOutput> = if rdg_active {
        let task: &'static str = if roi_estimated { "RDG_ROI" } else { "RDG_FULL" };
        let mut panic_jobs = faults.rdg_panic_jobs;
        let mut channel_left = faults.rdg_channel_errors;
        let dispatched = Instant::now();
        let out = dispatch_recovering(
            task,
            frame_index,
            policy.rdg_stripes.max(1),
            retry,
            &mut pending_pool_kinds,
            observer,
            |stripes| {
                let fault = if channel_left > 0 {
                    channel_left -= 1;
                    StripeFault {
                        panic_jobs: 0,
                        channel_error: true,
                    }
                } else {
                    StripeFault {
                        panic_jobs: std::mem::take(&mut panic_jobs),
                        channel_error: false,
                    }
                };
                let bufs = &mut state.rdg_bufs;
                rdg_banded(pool, frame, work_roi, &rdg_cfg, stripes, fault, bufs)
            },
        )?;
        let wall_ms = dispatched.elapsed().as_secs_f64() * 1e3;
        let times = state.rdg_bufs.times();
        let ms = banded_stage(times, wall_ms, task, observer, frame_index);
        task_times.push((task, ms));
        Some(out)
    } else {
        None
    };

    // --- MKX EXT ---------------------------------------------------------
    let mkx_input = rdg_out.as_ref().map(|o| &o.filtered).unwrap_or(frame);
    let (mkx, ms) = time_ms(|| mkx_extract(mkx_input, work_roi, &cfg.mkx, &mut state.mkx_bufs));
    task_times.push(("MKX_EXT", ms));

    // --- CPLS SEL ----------------------------------------------------------
    let prev = state.prev_couple;
    let (cpls, ms) = time_ms(|| cpls_select(&mkx.candidates, prev.as_ref(), &cfg.cpls));
    task_times.push(("CPLS_SEL", ms));
    let couple = cpls.couple;

    // --- REG ---------------------------------------------------------------
    let mut reg_successful = false;
    let mut transform = imaging::registration::RigidTransform::identity();
    let (reg_result, ms) =
        time_ms(
            || match (&couple, &state.reference_couple, &state.reference_frame) {
                (Some(c), Some(rc), Some(rf)) => {
                    Some(register(frame, rf, c, rc, work_roi, &cfg.reg))
                }
                _ => None,
            },
        );
    task_times.push(("REG", ms));
    match reg_result {
        Some(r) => {
            reg_successful = r.success;
            if r.success {
                transform = r.transform;
                state.recent_motion = r.transform.translation_magnitude();
                state.reg_failures = 0;
            } else {
                state.reg_failures += 1;
            }
        }
        None => {
            if let Some(c) = &couple {
                // first acquisition: this frame becomes the reference
                state.reference_frame = Some(frame.clone());
                state.reference_couple = Some(*c);
            }
        }
    }
    // Scripted REG switch: a forced success runs ENH/ZOOM with whatever
    // transform registration produced (identity when it did not run); a
    // forced failure skips them. Registration bookkeeping above
    // (failure counts, reference acquisition) stays natural either way.
    if let Some(f) = forced {
        reg_successful = f.reg_successful;
    }

    // --- ROI EST + GW EXT (tracking branch) ------------------------------
    // The tracking tasks run at ROI granularity, i.e. only once a region
    // of interest is established (the "ROI ESTIMATED" switch). On the
    // acquisition frame (first couple, not yet tracking) the ROI is
    // bootstrapped without running the tasks, which keeps the executed
    // task set consistent with the scenario state table.
    let mut next_roi = None;
    if let Some(c) = &couple {
        if roi_estimated {
            let (roi, ms) = time_ms(|| estimate_roi(c, state.recent_motion, w, h, &cfg.roi_est));
            task_times.push(("ROI_EST", ms));

            // guide-wire verification: "the guide wire can be detected by
            // a ridge filter in guide-wire extraction" (Section 3). GW
            // samples the ridge response of the new ROI in a corridor
            // between the markers, so only the corridor's box is swept (a
            // data-partitionable streaming pass) and, where this frame's
            // RDG call has been, only the scales it left out. The serial
            // DP path search follows.
            let window = corridor_box(c, &cfg.gw, w, h);
            let same_frame = rdg_out.is_some();
            let dispatched = Instant::now();
            dispatch_recovering(
                "GW_EXT",
                frame_index,
                policy.aux_stripes.max(1),
                retry,
                &mut Vec::new(),
                observer,
                |stripes| {
                    let fault = std::mem::take(&mut gw_fault);
                    let bufs = &mut state.rdg_bufs;
                    ridge_response_banded(
                        pool, frame, window, roi, &cfg.rdg, same_frame, stripes, fault, bufs,
                    )
                },
            )?;
            let wall_ms = dispatched.elapsed().as_secs_f64() * 1e3;
            let times = state.rdg_bufs.times();
            let ridge_ms = banded_stage(times, wall_ms, "GW_EXT", observer, frame_index);
            let response = state.rdg_bufs.response();
            let (gw, ms) = time_ms(|| gw_extract_with(response, c, &cfg.gw, &mut state.gw_scratch));
            task_times.push(("GW_EXT", ridge_ms + ms));

            if gw.wire_found {
                next_roi = Some(roi);
            }
        } else {
            // acquisition bootstrap: negligible cost, not a graph task
            next_roi = Some(estimate_roi(c, state.recent_motion, w, h, &cfg.roi_est));
        }
    }

    // --- switch 3: REG. SUCCESSFUL -> ENH + ZOOM ---------------------------
    let mut display = None;
    if reg_successful {
        let enh_roi = next_roi
            .or(state.current_roi)
            .unwrap_or_else(|| frame.full_roi())
            .clamp_to(w, h);

        // ENH: accumulate the registered frame over the ROI, then read it
        // out into the pooled view buffer, re-created only when the ROI
        // geometry changes, so steady-state tracking frames allocate
        // nothing here
        let weight = state.enh_state.next_weight(&cfg.enh);
        let (_, acc_ms) = time_ms(|| {
            state
                .enh_state
                .accumulate(frame, &transform, enh_roi, weight)
        });
        state.enh_state.commit();
        let mut enhanced = match state.enh_view.take() {
            Some(img) if img.dims() == (enh_roi.width, enh_roi.height) => img,
            _ => ImageU16::new(enh_roi.width, enh_roi.height),
        };
        let (_, read_ms) = time_ms(|| {
            state
                .enh_state
                .readout_into(enh_roi, cfg.enh.gain, &mut enhanced)
        });
        task_times.push(("ENH", acc_ms + read_ms));

        // ZOOM: one call over every output row. The pooled scratch keeps
        // the per-column tap plans and the source-row cache warm across
        // frames. The output image itself is handed to the caller via
        // `display`, so it is the one per-frame allocation that cannot be
        // pooled.
        let mut out_img = ImageU16::new(cfg.zoom.out_width, cfg.zoom.out_height);
        let (_, ms) = time_ms(|| {
            zoom_band_with(
                &enhanced,
                enhanced.full_roi(),
                &cfg.zoom,
                &mut out_img,
                0,
                cfg.zoom.out_height,
                &mut state.zoom_scratch,
            )
        });
        task_times.push(("ZOOM", ms));
        state.enh_view = Some(enhanced);
        display = Some(out_img);
    }

    // --- injected stage delay ---------------------------------------------
    // Applied as a serial pseudo-task at the end of the graph: pixel
    // outputs are untouched, but the frame's measured latency inflates so
    // budget overrun and downshift policies react to it.
    if faults.stage_delay_ms > 0.0 {
        let (_, ms) = time_ms(|| {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                faults.stage_delay_ms / 1000.0,
            ))
        });
        task_times.push(("FAULT_DELAY", ms));
        emit(observer, |stream| FrameEvent::Recovered {
            stream,
            frame: frame_index,
            kind: FaultKind::StageDelay,
            attempts: 0,
        });
    }

    // --- bookkeeping -----------------------------------------------------
    // Armed pool faults that found no striped dispatch this frame are
    // absorbed: a zero-attempt `Recovered` keeps the fault/terminal
    // pairing 1:1 in replay logs.
    for kind in pending_pool_kinds.drain(..) {
        emit(observer, |stream| FrameEvent::Recovered {
            stream,
            frame: frame_index,
            kind,
            attempts: 0,
        });
    }
    // Return the RDG output images to the buffer pool, so the next frame's
    // detection pass runs allocation free.
    if let Some(out) = rdg_out {
        state.rdg_bufs.recycle(out);
    }
    state.prev_couple = couple;
    if couple.is_none() || state.reg_failures > cfg.max_reg_failures {
        state.lose_tracking();
    } else {
        state.current_roi = next_roi;
    }

    let scenario = Scenario {
        rdg_active,
        roi_estimated,
        reg_successful,
    };
    Ok(FrameOutput {
        record: FrameRecord {
            frame: frame_index,
            scenario: scenario.id(),
            task_times,
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
        },
        scenario,
        roi: state.current_roi,
        roi_kpixels,
        couple_found: couple.is_some(),
        display,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

    fn clean_sequence(frames: usize, seed: u64) -> SequenceGenerator {
        SequenceGenerator::new(SequenceConfig {
            width: 160,
            height: 160,
            frames,
            seed,
            noise: NoiseConfig {
                quantum_scale: 0.3,
                electronic_std: 2.0,
            },
            ..Default::default()
        })
    }

    fn run(frames: usize, seed: u64, policy: ExecutionPolicy) -> Vec<FrameOutput> {
        let cfg = AppConfig::default();
        let mut state = AppState::new(160, 160);
        clean_sequence(frames, seed)
            .map(|f| process_frame(f.index, &f.image, &mut state, &cfg, &policy))
            .collect()
    }

    #[test]
    fn pipeline_acquires_and_tracks_markers() {
        let outs = run(10, 42, ExecutionPolicy::default());
        let found = outs.iter().filter(|o| o.couple_found).count();
        assert!(found >= 7, "couple found in only {found}/10 frames");
        // tracking established: later frames run at ROI granularity
        assert!(
            outs[5..].iter().any(|o| o.scenario.roi_estimated),
            "ROI never estimated"
        );
    }

    #[test]
    fn registration_eventually_succeeds_and_produces_display() {
        let outs = run(12, 43, ExecutionPolicy::default());
        let successes = outs.iter().filter(|o| o.scenario.reg_successful).count();
        assert!(successes >= 3, "registration succeeded {successes} times");
        assert!(
            outs.iter().any(|o| o.display.is_some()),
            "no display output"
        );
    }

    #[test]
    fn every_frame_records_core_tasks() {
        let outs = run(6, 44, ExecutionPolicy::default());
        for o in &outs {
            assert!(o.record.task_time("MKX_EXT").is_some());
            assert!(o.record.task_time("CPLS_SEL").is_some());
            assert!(o.record.task_time("REG").is_some());
            assert!(o.record.latency_ms > 0.0);
        }
    }

    #[test]
    fn recorded_scenario_matches_executed_tasks() {
        let outs = run(12, 45, ExecutionPolicy::default());
        for o in &outs {
            let s = o.scenario;
            assert_eq!(
                o.record.task_time("ENH").is_some(),
                s.reg_successful,
                "frame {}",
                o.record.frame
            );
            let ran_rdg =
                o.record.task_time("RDG_FULL").is_some() || o.record.task_time("RDG_ROI").is_some();
            assert_eq!(ran_rdg, s.rdg_active, "frame {}", o.record.frame);
        }
    }

    #[test]
    fn scenario_script_forces_switches() {
        use triplec::scenario::ScenarioScript;
        // thrash 0 <-> 7 every frame for 8 frames, then fall back to content
        let cfg = AppConfig {
            scenario_script: Some(ScenarioScript::thrash(&[0, 7], 1, 4)),
            ..Default::default()
        };
        let policy = ExecutionPolicy::default();
        let mut state = AppState::new(160, 160);
        let outs: Vec<FrameOutput> = clean_sequence(12, 45)
            .map(|f| process_frame(f.index, &f.image, &mut state, &cfg, &policy))
            .collect();
        for (i, o) in outs.iter().take(8).enumerate() {
            let want = if i % 2 == 0 { 0 } else { 7 };
            assert_eq!(o.scenario.id(), want, "frame {i}");
            // the forced switches actually gate the heavy branches
            assert_eq!(o.record.task_time("ENH").is_some(), want == 7, "frame {i}");
            let ran_rdg =
                o.record.task_time("RDG_FULL").is_some() || o.record.task_time("RDG_ROI").is_some();
            assert_eq!(ran_rdg, want == 7, "frame {i}");
        }
        // past the script: the switches are content-derived again
        let natural: Vec<FrameOutput> = {
            let cfg = AppConfig::default();
            let mut state = AppState::new(160, 160);
            clean_sequence(12, 45)
                .map(|f| process_frame(f.index, &f.image, &mut state, &cfg, &policy))
                .collect()
        };
        // frame 8+ RDG switch matches the unscripted probe decision
        for i in 8..12 {
            assert_eq!(
                outs[i].scenario.rdg_active, natural[i].scenario.rdg_active,
                "frame {i}"
            );
        }
    }

    #[test]
    fn roi_granularity_reduces_rdg_work() {
        let outs = run(14, 46, ExecutionPolicy::default());
        let full: Vec<f64> = outs
            .iter()
            .filter_map(|o| o.record.task_time("RDG_FULL"))
            .collect();
        let roi: Vec<f64> = outs
            .iter()
            .filter_map(|o| o.record.task_time("RDG_ROI"))
            .collect();
        if !full.is_empty() && !roi.is_empty() {
            let mf = full.iter().sum::<f64>() / full.len() as f64;
            let mr = roi.iter().sum::<f64>() / roi.len() as f64;
            assert!(mr < mf, "ROI RDG {mr} not cheaper than full {mf}");
        }
    }

    use std::sync::{Arc, Mutex};

    fn capture_bus() -> (EventBus, Arc<Mutex<Vec<FrameEvent>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut bus = EventBus::new();
        let sink = Arc::clone(&log);
        bus.subscribe(Box::new(move |e: &FrameEvent| {
            sink.lock().unwrap().push(e.clone())
        }));
        (bus, log)
    }

    fn striped_policy() -> ExecutionPolicy {
        ExecutionPolicy {
            rdg_stripes: 4,
            aux_stripes: 2,
        }
    }

    /// Runs a clean sequence under `policy` with a capture bus attached,
    /// through the observed entry point (no recovery context) or the
    /// recovering one.
    fn run_observed(
        frames: usize,
        seed: u64,
        policy: ExecutionPolicy,
        recovery: Option<(FrameFaults, StageRetry)>,
    ) -> (Vec<FrameOutput>, Vec<FrameEvent>) {
        let cfg = AppConfig::default();
        let mut state = AppState::new(160, 160);
        let (mut bus, log) = capture_bus();
        let pool = StripePool::global();
        let outs = clean_sequence(frames, seed)
            .map(|f| match recovery {
                None => process_frame_observed_on(
                    pool, f.index, &f.image, &mut state, &cfg, &policy, 7, &mut bus,
                ),
                Some((faults, retry)) => process_frame_recovering_on(
                    pool, f.index, &f.image, &mut state, &cfg, &policy, 7, &mut bus, faults, &retry,
                )
                .expect("frame failed despite serial fallback"),
            })
            .collect();
        let events = log.lock().unwrap().clone();
        (outs, events)
    }

    fn run_recovering(
        frames: usize,
        seed: u64,
        faults: FrameFaults,
    ) -> (Vec<FrameOutput>, Vec<FrameEvent>) {
        let recovery = Some((faults, StageRetry::default()));
        run_observed(frames, seed, striped_policy(), recovery)
    }

    fn assert_bit_identical(nominal: &[FrameOutput], faulted: &[FrameOutput]) {
        assert_eq!(nominal.len(), faulted.len());
        for (a, b) in nominal.iter().zip(faulted) {
            assert_eq!(a.scenario, b.scenario, "frame {}", a.record.frame);
            assert_eq!(
                a.display, b.display,
                "display differs at frame {}",
                a.record.frame
            );
            assert_eq!(a.roi, b.roi, "roi differs at frame {}", a.record.frame);
        }
    }

    #[test]
    fn recovering_without_faults_matches_nominal_and_stays_silent() {
        let nominal = run(8, 52, striped_policy());
        let (faulted, events) = run_recovering(8, 52, FrameFaults::default());
        assert_bit_identical(&nominal, &faulted);
        assert!(
            events.iter().all(|e| e.replay_key().is_none()),
            "fault-family events emitted without faults armed"
        );
    }

    /// `(frame, task, jobs)` of every `StageExecuted`, in emission order.
    fn stage_sequence(events: &[FrameEvent]) -> Vec<(usize, &'static str, usize)> {
        events
            .iter()
            .filter_map(|e| match *e {
                FrameEvent::StageExecuted {
                    frame, task, jobs, ..
                } => Some((frame, task, jobs)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn striped_dispatch_without_recovery_context_matches_serial_and_unarmed() {
        let serial = run(8, 52, ExecutionPolicy::default());
        for rdg_stripes in [2, 4] {
            let policy = ExecutionPolicy {
                rdg_stripes,
                aux_stripes: 1,
            };
            let (bare, bare_events) = run_observed(8, 52, policy, None);
            let unarmed = Some((FrameFaults::default(), StageRetry::default()));
            let (unarmed, unarmed_events) = run_observed(8, 52, policy, unarmed);
            assert_bit_identical(&serial, &bare);
            assert_bit_identical(&bare, &unarmed);
            let stages = stage_sequence(&bare_events);
            assert!(
                stages.iter().any(|&(_, _, jobs)| jobs == rdg_stripes),
                "no {rdg_stripes}-stripe RDG stage ever dispatched"
            );
            assert_eq!(stages, stage_sequence(&unarmed_events));
        }
    }

    #[test]
    fn striped_rdg_task_time_is_the_whole_call_not_the_bands_alone() {
        let cfg = AppConfig::default();
        let policy = ExecutionPolicy {
            rdg_stripes: 4,
            aux_stripes: 1,
        };
        let mut state = AppState::new(160, 160);
        let (mut bus, log) = capture_bus();
        let pool = StripePool::global();
        let mut checked = 0;
        for f in clean_sequence(8, 52) {
            let out = process_frame_observed_on(
                pool, f.index, &f.image, &mut state, &cfg, &policy, 7, &mut bus,
            );
            let Some(task_ms) = out.record.task_time("RDG_FULL") else {
                continue;
            };
            // a full-frame RDG frame runs no GW pass, so the buffers still
            // hold the detection pass's breakdown
            let times = state.rdg_bufs.times();
            assert_eq!(times.band_ms.len(), 4);
            assert!(times.serial_ms > 0.0);
            let band_sum: f64 = times.band_ms.iter().sum();
            assert_eq!(task_ms, times.serial_ms + band_sum, "frame {}", f.index);
            // the parallel stage on the bus is the bands; the task time
            // adds the serial sections around them
            let stage_ms = log.lock().unwrap().iter().find_map(|e| match *e {
                FrameEvent::StageExecuted {
                    frame,
                    task: "RDG_FULL",
                    serial_ms,
                    ..
                } if frame == f.index => Some(serial_ms),
                _ => None,
            });
            assert_eq!(stage_ms, Some(band_sum), "frame {}", f.index);
            assert!(task_ms > band_sum);
            checked += 1;
        }
        assert!(checked > 0, "no full-frame RDG ever ran");
    }

    #[test]
    fn injected_worker_panic_recovers_bit_identically() {
        let nominal = run(8, 52, striped_policy());
        let faults = FrameFaults {
            rdg_panic_jobs: 1,
            ..Default::default()
        };
        let (faulted, events) = run_recovering(8, 52, faults);
        assert_bit_identical(&nominal, &faulted);
        // every injection is matched by a terminal Recovered on its frame
        let injected: Vec<usize> = events
            .iter()
            .filter(|e| matches!(e, FrameEvent::FaultInjected { .. }))
            .map(|e| e.frame())
            .collect();
        assert!(!injected.is_empty(), "no fault ever injected");
        for f in &injected {
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    FrameEvent::Recovered { frame, kind: FaultKind::WorkerPanic, .. } if frame == f
                )),
                "frame {f} has no terminal Recovered"
            );
        }
        // frames with a striped dispatch actually retried
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FrameEvent::RetryAttempted { .. })),
            "panic never triggered a retry"
        );
    }

    #[test]
    fn channel_faults_beyond_retries_degrade_to_serial_bit_identically() {
        let nominal = run(8, 52, striped_policy());
        let faults = FrameFaults {
            rdg_channel_errors: 10,
            ..Default::default()
        };
        let (faulted, events) = run_recovering(8, 52, faults);
        assert_bit_identical(&nominal, &faulted);
        assert!(
            events.iter().any(|e| matches!(
                e,
                FrameEvent::DegradedMode {
                    mode: DegradeMode::SerialFallback,
                    cause: FaultKind::ChannelError,
                    ..
                }
            )),
            "exhausted retries never degraded to serial"
        );
    }

    #[test]
    fn exhausted_retries_without_fallback_error_out() {
        let cfg = AppConfig::default();
        let mut state = AppState::new(160, 160);
        let (mut bus, _log) = capture_bus();
        let faults = FrameFaults {
            rdg_channel_errors: 10,
            ..Default::default()
        };
        let retry = StageRetry {
            max_retries: 1,
            serial_fallback: false,
        };
        let mut failures = 0;
        for f in clean_sequence(8, 53) {
            match process_frame_recovering_on(
                StripePool::global(),
                f.index,
                &f.image,
                &mut state,
                &cfg,
                &striped_policy(),
                7,
                &mut bus,
                faults,
                &retry,
            ) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.stage.starts_with("RDG"), "unexpected stage {}", e.stage);
                    assert!(e.to_string().contains("failed after retries"));
                    failures += 1;
                }
            }
        }
        assert!(failures > 0, "no frame ever failed");
    }

    /// Runs a clean sequence with `gw_fault` armed on every frame's GW EXT
    /// sweep, under `recovery` (`None`: no recovery context). Stops at the
    /// first frame that fails. The fine scales stay off in RDG, so that GW
    /// EXT has a scale left to sweep on every tracked frame.
    fn run_gw_faulted(
        policy: ExecutionPolicy,
        recovery: Option<StageRetry>,
        gw_fault: StripeFault,
    ) -> (Vec<FrameOutput>, Option<FrameError>, Vec<FrameEvent>) {
        let cfg = AppConfig {
            fine_probe_factor: 100.0,
            ..Default::default()
        };
        let mut state = AppState::new(160, 160);
        let (mut bus, log) = capture_bus();
        let faults = FrameFaults::default();
        let mut outs = Vec::new();
        let mut error = None;
        for f in clean_sequence(10, 52) {
            match process_frame_inner(
                StripePool::global(),
                f.index,
                &f.image,
                &mut state,
                &cfg,
                &policy,
                &mut Some((7, &mut bus)),
                recovery.as_ref().map(|retry| (&faults, retry)),
                gw_fault,
            ) {
                Ok(out) => outs.push(out),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let events = log.lock().unwrap().clone();
        (outs, error, events)
    }

    #[test]
    fn gw_sweep_band_panic_goes_through_the_retry_policy() {
        let policy = ExecutionPolicy {
            rdg_stripes: 1,
            aux_stripes: 2,
        };
        let (nominal, error, events) = run_gw_faulted(policy, None, StripeFault::default());
        assert!(error.is_none() && events.iter().all(|e| e.replay_key().is_none()));
        let band_panic = StripeFault {
            panic_jobs: 1,
            channel_error: false,
        };

        // default policy: one retry per frame delivers the nominal frame
        let (faulted, error, events) =
            run_gw_faulted(policy, Some(StageRetry::default()), band_panic);
        assert!(error.is_none(), "{error:?}");
        assert_bit_identical(&nominal, &faulted);
        let swept: Vec<usize> = stage_sequence(&events)
            .into_iter()
            .filter(|&(_, task, jobs)| task == "GW_EXT" && jobs == 2)
            .map(|(frame, ..)| frame)
            .collect();
        assert!(swept.len() >= 4, "GW EXT swept two bands on {swept:?} only");
        let fault_family: Vec<&FrameEvent> =
            events.iter().filter(|e| e.replay_key().is_some()).collect();
        assert_eq!(fault_family.len(), 2 * swept.len(), "{fault_family:?}");
        for (pair, &f) in fault_family.chunks(2).zip(&swept) {
            assert!(
                matches!(
                    pair,
                    [
                        FrameEvent::RetryAttempted { frame: a, kind: FaultKind::WorkerPanic, attempt: 1, .. },
                        FrameEvent::Recovered { frame: b, kind: FaultKind::WorkerPanic, attempts: 1, .. },
                    ] if *a == f && *b == f
                ),
                "frame {f}: {pair:?}"
            );
        }

        // no retries left: one band, the same pixels, one `DegradedMode`
        let no_retries = StageRetry {
            max_retries: 0,
            serial_fallback: true,
        };
        let (degraded, error, events) = run_gw_faulted(policy, Some(no_retries), band_panic);
        assert!(error.is_none(), "{error:?}");
        assert_bit_identical(&nominal, &degraded);
        let fallbacks = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FrameEvent::DegradedMode {
                        mode: DegradeMode::SerialFallback,
                        cause: FaultKind::WorkerPanic,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fallbacks, swept.len());
        assert_eq!(
            events.iter().filter(|e| e.replay_key().is_some()).count(),
            fallbacks
        );

        // no recovery context: the frame fails, the thread does not
        let (outs, error, _) = run_gw_faulted(policy, None, band_panic);
        let error = error.expect("a band panic without a retry policy fails the frame");
        assert_eq!(error.stage, "GW_EXT");
        assert_eq!(error.frame, swept[0]);
        assert_eq!(outs.len(), swept[0]);
        assert!(matches!(error.error, PoolError::JobPanicked(_)));
    }

    #[test]
    fn stage_delay_inflates_latency_and_recovers() {
        let faults = FrameFaults {
            stage_delay_ms: 5.0,
            ..Default::default()
        };
        let (outs, events) = run_recovering(3, 54, faults);
        for o in &outs {
            let delay = o
                .record
                .task_time("FAULT_DELAY")
                .expect("delay not recorded");
            assert!(delay >= 4.0, "delay only {delay} ms");
        }
        let recovered = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FrameEvent::Recovered {
                        kind: FaultKind::StageDelay,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(recovered, 3, "one StageDelay recovery per frame expected");
    }

    #[test]
    fn dedicated_pool_is_bit_identical_to_global_pool() {
        let policy = striped_policy();
        let global = run(8, 55, policy);
        let pool = StripePool::new(2);
        let cfg = AppConfig::default();
        let mut state = AppState::new(160, 160);
        let pinned: Vec<FrameOutput> = clean_sequence(8, 55)
            .map(|f| process_frame_on(&pool, f.index, &f.image, &mut state, &cfg, &policy))
            .collect();
        assert_bit_identical(&global, &pinned);
    }

    #[test]
    fn latency_covers_every_task_time_at_one_stripe() {
        // every timed section nests inside the frame's wall time, and at
        // one stripe none of them overlaps another
        for o in run(6, 48, ExecutionPolicy::default()) {
            let task_sum = o.record.total_task_time();
            assert!(
                o.record.latency_ms >= task_sum,
                "latency {} below the task-time sum {}",
                o.record.latency_ms,
                task_sum
            );
        }
    }
}
