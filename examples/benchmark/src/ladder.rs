//! The `--trace` run: the layer ladder.
//!
//! Every per-layer metric is timed here, around a direct call from this
//! file into one layer, on the workload's own frames and ROIs. Spans are
//! kept in memory and written as Chrome trace JSON when the run ends. The
//! rungs, bottom up:
//!
//! 1. `imaging`: a shadow of the pipeline's serial stage sequence that
//!    calls each kernel itself (and must reproduce the reference digests);
//! 2. `pipeline`: `process_frame_on` over the same steps;
//! 3. `runtime`: the frame loop replayed by hand as `plan →
//!    process_frame_observed_on → absorb`, so spans nest as pass → frame →
//!    layer, against the same loop inside `StreamEngine`, bare and with
//!    `Observability` attached;
//! 4. `service`: 1, 8 and 64 streams of 128² through `ServiceCore::spawn`;
//! 5. `core` and `platform` calls on their own.
//!
//! End-to-end numbers never come from this run.

use crate::inputs::{self, digest_opt, is_full, Inputs, Scale, StreamInput, Workload};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{self, Pass};
use crate::{host, metric, Metric, Outcome};
use imaging::couples::cpls_select;
use imaging::guidewire::gw_extract_with;
use imaging::image::ImageU16;
use imaging::markers::{mkx_extract, MkxBuffers};
use imaging::parallel::{rdg_parallel_pooled, ParallelRdgBuffers, StripePool};
use imaging::registration::{register, RigidTransform};
use imaging::ridge::{rdg_roi, RdgBuffers};
use imaging::roi_est::estimate_roi;
use imaging::zoom::zoom_band_with;
use pipeline::app::{structure_probe, AppConfig, AppState};
use pipeline::executor::{process_frame_observed_on, process_frame_on, ExecutionPolicy};
use platform::bus::{EventBus, FrameEvent, StreamId};
use platform::metrics::{Labels, Observability};
use runtime::service::{FrameQueue, ShardTopology};
use runtime::{predict_demand, BackpressurePolicy, ResourceManager, StreamEngine, StreamSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use triplec::predictor::PredictContext;
use triplec::scenario::Scenario;

/// A residual above this share of its parent layer is reported.
const RESIDUAL_WARN: f64 = 0.15;

/// Named timing samples, ms. A `BTreeMap` keeps the report order stable.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    fn median(&self, name: &str) -> f64 {
        median(self.0.get(name).map_or(&[], Vec::as_slice))
    }
}

/// The streams the engine-level rungs replay.
fn replayed<'a>(inputs: &'a Inputs, scale: &Scale) -> &'a [StreamInput] {
    &inputs.streams[..inputs.streams.len().min(scale.replay_streams)]
}

// ---------------------------------------------------------------- imaging

/// One frame through the pipeline's serial stage sequence, each kernel
/// called and timed from here. Mirrors `pipeline::executor` with one
/// stripe, no scenario script and no fault recovery; the caller checks the
/// returned display against the reference digest, so a drift between the
/// two shows as a failed run and not as a wrong number.
fn shadow_frame(
    sp: &mut Spans,
    t: &mut Samples,
    frame: &ImageU16,
    state: &mut AppState,
    cfg: &AppConfig,
) -> Option<ImageU16> {
    let (w, h) = frame.dims();
    let (probe, ms) = sp.leaf("structure_probe", "pipeline", || {
        structure_probe(frame, cfg.probe_block)
    });
    t.push("probe", ms);
    let rdg_active = probe > cfg.structure_threshold;
    let fine_on = cfg.structure_threshold * cfg.fine_probe_factor;
    if probe > fine_on {
        state.fine_active = true;
    } else if probe < fine_on * 0.9 {
        state.fine_active = false;
    }
    let mut rdg_cfg = cfg.rdg.clone();
    rdg_cfg.fine_enabled = state.fine_active;
    let roi_estimated = state.current_roi.is_some();
    let work_roi = state.current_roi.unwrap_or_else(|| frame.full_roi());
    let mut sum = 0.0;

    let rdg_out = rdg_active.then(|| {
        let (out, ms) = sp.leaf("rdg", "imaging", || {
            rdg_roi(frame, work_roi, &rdg_cfg, &mut state.rdg_bufs)
        });
        if roi_estimated {
            t.push("rdg_roi", ms);
        }
        sum += ms;
        out
    });

    let mkx_input = rdg_out.as_ref().map_or(frame, |o| &o.filtered);
    let (mkx, ms) = sp.leaf("mkx", "imaging", || {
        mkx_extract(mkx_input, work_roi, &cfg.mkx, &mut state.mkx_bufs)
    });
    if roi_estimated {
        t.push("mkx_roi", ms);
    }
    sum += ms;

    let prev = state.prev_couple;
    let (cpls, ms) = sp.leaf("cpls", "imaging", || {
        cpls_select(&mkx.candidates, prev.as_ref(), &cfg.cpls)
    });
    t.push("cpls", ms);
    sum += ms;
    let couple = cpls.couple;

    let mut reg_successful = false;
    let mut transform = RigidTransform::identity();
    let (reg, ms) = sp.leaf("reg", "imaging", || {
        match (&couple, &state.reference_couple, &state.reference_frame) {
            (Some(c), Some(rc), Some(rf)) => Some(register(frame, rf, c, rc, work_roi, &cfg.reg)),
            _ => None,
        }
    });
    t.push("reg", ms);
    sum += ms;
    match reg {
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
                state.reference_frame = Some(frame.clone());
                state.reference_couple = Some(*c);
            }
        }
    }

    let mut next_roi = None;
    if let Some(c) = &couple {
        if roi_estimated {
            let (roi, ms) = sp.leaf("roi_est", "imaging", || {
                estimate_roi(c, state.recent_motion, w, h, &cfg.roi_est)
            });
            t.push("roi_est", ms);
            sum += ms;
            let (wire_found, ms) = sp.leaf("gw", "imaging", || {
                let gw_rdg = rdg_roi(frame, roi, &cfg.rdg, &mut state.rdg_bufs);
                let gw = gw_extract_with(&gw_rdg.ridgeness, c, &cfg.gw, &mut state.gw_scratch);
                state.rdg_bufs.recycle(gw_rdg);
                gw.wire_found
            });
            t.push("gw", ms);
            sum += ms;
            if wire_found {
                next_roi = Some(roi);
            }
        } else {
            next_roi = Some(estimate_roi(c, state.recent_motion, w, h, &cfg.roi_est));
        }
    }

    let mut display = None;
    if reg_successful {
        let enh_roi = next_roi
            .or(state.current_roi)
            .unwrap_or_else(|| frame.full_roi())
            .clamp_to(w, h);
        let weight = state.enh_state.next_weight(&cfg.enh);
        let (_, ms) = sp.leaf("enh_acc", "imaging", || {
            state
                .enh_state
                .accumulate(frame, &transform, enh_roi, weight)
        });
        t.push("enh_acc", ms);
        sum += ms;
        state.enh_state.commit();
        let mut enhanced = match state.enh_view.take() {
            Some(img) if img.dims() == (enh_roi.width, enh_roi.height) => img,
            _ => ImageU16::new(enh_roi.width, enh_roi.height),
        };
        let (_, ms) = sp.leaf("enh_read", "imaging", || {
            state
                .enh_state
                .readout_into(enh_roi, cfg.enh.gain, &mut enhanced)
        });
        t.push("enh_read", ms);
        sum += ms;
        let mut out_img = ImageU16::new(cfg.zoom.out_width, cfg.zoom.out_height);
        let src_roi = enhanced.full_roi();
        let (_, ms) = sp.leaf("zoom", "imaging", || {
            zoom_band_with(
                &enhanced,
                src_roi,
                &cfg.zoom,
                &mut out_img,
                0,
                cfg.zoom.out_height,
                &mut state.zoom_scratch,
            )
        });
        t.push("zoom", ms);
        sum += ms;
        state.enh_view = Some(enhanced);
        display = Some(out_img);
    }

    if let Some(out) = rdg_out {
        state.rdg_bufs.recycle(out);
    }
    state.prev_couple = couple;
    if couple.is_none() || state.reg_failures > cfg.max_reg_failures {
        state.lose_tracking();
    } else {
        state.current_roi = next_roi;
    }
    t.push(
        if roi_estimated {
            "kernel_sum_roi"
        } else {
            "kernel_sum_full"
        },
        sum,
    );
    display
}

/// The imaging rung. Returns displays that differ from the reference.
fn imaging_rung(sp: &mut Spans, t: &mut Samples, inputs: &Inputs, scale: &Scale) -> usize {
    let mut failed = 0;
    for stream in replayed(inputs, scale) {
        let mut state = AppState::new(stream.cfg.width, stream.cfg.height);
        for (k, &pos) in stream.order.iter().enumerate() {
            let display = sp
                .timed("shadow_frame", "imaging", |sp| {
                    shadow_frame(sp, t, &stream.frames[pos], &mut state, &inputs.app)
                })
                .0;
            failed += usize::from(digest_opt(&display) != stream.digests[k]);
        }
    }

    // full-frame kernels head to head on the same frames: one stripe
    // against two on the global pool, and marker extraction on the result
    let cfg = &inputs.app;
    let mut rdg_cfg = cfg.rdg.clone();
    rdg_cfg.fine_enabled = false;
    let edge = inputs.streams[0].cfg.width;
    let mut bufs = RdgBuffers::new(edge, edge);
    let mut par = ParallelRdgBuffers::new();
    let mut mkx_bufs = MkxBuffers::new(edge, edge);
    let firsts: Vec<&ImageU16> = inputs
        .streams
        .iter()
        .take(6)
        .map(|s| &s.frames[0])
        .chain(inputs.streams[0].frames.iter().skip(1).take(5))
        .collect();
    for frame in firsts {
        let roi = frame.full_roi();
        let (out, ms) = sp.leaf("rdg_full_1stripe", "imaging", || {
            rdg_roi(frame, roi, &rdg_cfg, &mut bufs)
        });
        t.push("rdg_full_direct", ms);
        let (_, ms) = sp.leaf("mkx_full", "imaging", || {
            black_box(mkx_extract(&out.filtered, roi, &cfg.mkx, &mut mkx_bufs))
        });
        t.push("mkx_full_direct", ms);
        bufs.recycle(out);
        let (out, ms) = sp.leaf("rdg_full_2stripe", "imaging", || {
            rdg_parallel_pooled(StripePool::global(), frame, roi, &rdg_cfg, 2, &mut par)
        });
        t.push("rdg_full_2stripe", ms);
        par.recycle(out);
    }

    let pool = StripePool::global();
    for _ in 0..200 {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..host::nproc())
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        let t0 = Instant::now();
        pool.run(jobs);
        t.push("pool_roundtrip", t0.elapsed().as_secs_f64() * 1e3);
    }
    failed
}

// --------------------------------------------------------------- pipeline

fn pipeline_rung(
    sp: &mut Spans,
    t: &mut Samples,
    inputs: &Inputs,
    small: &Inputs,
    scale: &Scale,
) -> usize {
    let policy = ExecutionPolicy::default();
    let pool = StripePool::global();
    let mut failed = 0;
    let mut full_frames = 0;
    for stream in replayed(inputs, scale) {
        let (mut state, ms) = sp.leaf("AppState::new", "pipeline", || {
            AppState::new(stream.cfg.width, stream.cfg.height)
        });
        t.push("state_new", ms);
        for (k, &pos) in stream.order.iter().enumerate() {
            let (out, ms) = sp.leaf("process_frame", "pipeline", || {
                process_frame_on(
                    pool,
                    k,
                    &stream.frames[pos],
                    &mut state,
                    &inputs.app,
                    &policy,
                )
            });
            failed += usize::from(digest_opt(&out.display) != stream.digests[k]);
            let tasks: f64 = out.record.task_times.iter().map(|(_, ms)| ms).sum();
            if is_full(out.scenario.id()) {
                full_frames += 1;
                t.push("frame_full", ms);
            } else {
                t.push("frame_roi", ms);
                t.push("overhead_roi", ms - tasks);
            }
        }
    }
    t.push("fullframe_frames", full_frames as f64);

    // the 128² frame nobody had named: what one fan-in frame costs with no
    // service tier around it
    let stream = &small.streams[0];
    let mut state = AppState::new(stream.cfg.width, stream.cfg.height);
    for (k, &pos) in stream.order.iter().enumerate() {
        let (out, ms) = sp.leaf("process_frame_128", "pipeline", || {
            process_frame_on(
                pool,
                k,
                &stream.frames[pos],
                &mut state,
                &small.app,
                &policy,
            )
        });
        if !is_full(out.scenario.id()) {
            t.push("frame_128", ms);
        }
    }
    failed
}

// ---------------------------------------------------------------- runtime

/// How a replay drives the frame loop.
#[derive(Clone, Copy, PartialEq)]
enum Replay {
    /// `StreamEngine::step_on`, nothing attached.
    Bare,
    /// `StreamEngine::step_on` with `Observability` attached.
    Observed,
    /// The same loop by hand, a span around every call.
    Traced,
}

/// Replays the workload's streams closed-loop, fresh state per stream.
/// Returns the failed frames.
fn replay(sp: &mut Spans, t: &mut Samples, inputs: &Inputs, scale: &Scale, how: Replay) -> usize {
    let pool = StripePool::global();
    let budget = (inputs.workload == Workload::Paced).then(|| workloads::paced_budget(scale));
    let mut failed = 0;
    for (id, stream) in replayed(inputs, scale).iter().enumerate() {
        let spec = workloads::spec_for(inputs, id, budget);
        if how == Replay::Traced {
            let mut manager =
                ResourceManager::for_stream(spec.model, spec.manager_cfg, id as StreamId);
            if let Some(b) = spec.budget {
                manager.set_budget(b);
            }
            let mut state = AppState::new(stream.cfg.width, stream.cfg.height);
            sp.timed("pass", "bench", |sp| {
                for (k, &pos) in stream.order.iter().enumerate() {
                    let frame = &stream.frames[pos];
                    let (display, frame_ms) = sp.timed("frame", "runtime", |sp| {
                        let roi_kpixels = state
                            .current_roi
                            .map_or((frame.width() * frame.height()) as f64 / 1e3, |r| {
                                r.area() as f64 / 1e3
                            });
                        let (plan, ms) = sp.leaf("plan", "runtime", || manager.plan(roi_kpixels));
                        t.push("plan", ms);
                        let (out, _) = sp.leaf("process_frame", "pipeline", || {
                            process_frame_observed_on(
                                pool,
                                k,
                                frame,
                                &mut state,
                                &inputs.app,
                                &plan.policy,
                                id as StreamId,
                                manager.bus_mut(),
                            )
                        });
                        let (_, ms) = sp.leaf("absorb", "runtime", || manager.absorb(&out));
                        t.push("absorb", ms);
                        out.display
                    });
                    t.push("traced_frame", frame_ms);
                    failed += usize::from(digest_opt(&display) != stream.digests[k]);
                }
            });
            continue;
        }
        let t0 = Instant::now();
        let mut engine = StreamEngine::new(id as StreamId, spec, host::nproc());
        if how == Replay::Bare {
            t.push("engine_new", t0.elapsed().as_secs_f64() * 1e3);
        } else {
            engine.attach_observability(&Observability::new());
        }
        for (k, &pos) in stream.order.iter().enumerate() {
            let t0 = Instant::now();
            if engine.step_on(pool, k, &stream.frames[pos]).is_err() {
                break;
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if how == Replay::Observed {
                t.push("observed_step", ms);
                continue;
            }
            t.push("bare_step", ms);
            t.push(
                if is_full(stream.scenarios[k]) {
                    "step_full"
                } else {
                    "step_roi"
                },
                ms,
            );
        }
        let t0 = Instant::now();
        let result = engine.finish();
        if how == Replay::Bare {
            t.push("engine_finish", t0.elapsed().as_secs_f64() * 1e3);
        }
        failed += workloads::verify(stream, &result);
    }
    failed
}

// ------------------------------------------------------- core, platform

fn core_rung(sp: &mut Spans, t: &mut Samples, inputs: &Inputs) {
    let model = &inputs.model;
    let edge = inputs.streams[0].cfg.width;
    let ctx = PredictContext {
        roi_kpixels: (edge * edge) as f64 / 1e3,
    };
    sp.timed("core", "core", |_| {
        for _ in 0..200 {
            let t0 = Instant::now();
            let scenario = model.predict_next_scenario(Scenario::worst_case());
            for task in scenario.active_tasks() {
                black_box(model.predict_task(task, &ctx));
            }
            t.push("predict_frame", t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut learner = model.clone();
        let tasks = Scenario::worst_case().active_tasks();
        for i in 0..200 {
            let t0 = Instant::now();
            for task in &tasks {
                black_box(learner.observe_task(task, 1.0 + (i % 7) as f64 * 0.1, &ctx));
            }
            t.push("observe", t0.elapsed().as_secs_f64() * 1e3);
        }
        for _ in 0..50 {
            let t0 = Instant::now();
            let bytes = model.snapshot_bytes();
            t.push("snapshot", t0.elapsed().as_secs_f64() * 1e3);
            t.push("snapshot_bytes", bytes.len() as f64);
            let t0 = Instant::now();
            let restored = learner.try_restore_bytes(&bytes).is_ok();
            t.push("restore", t0.elapsed().as_secs_f64() * 1e3);
            assert!(restored, "a fresh snapshot must restore");
        }
    });
}

fn platform_rung(sp: &mut Spans, t: &mut Samples) {
    sp.timed("platform", "platform", |_| {
        let obs = Observability::new();
        let mut bus = EventBus::new();
        obs.attach(&mut bus);
        const EMITS: usize = 20_000;
        let t0 = Instant::now();
        for frame in 0..EMITS {
            bus.emit(FrameEvent::FrameExecuted {
                stream: 0,
                frame,
                scenario: 7,
                predicted_total_ms: 5.0,
                actual_total_ms: 5.5,
                latency_ms: 5.5,
            });
        }
        t.push("bus_emit", t0.elapsed().as_secs_f64() * 1e3 / EMITS as f64);
        let hist = obs.metrics().histogram("bench_ladder_ms", Labels::none());
        const RECORDS: usize = 200_000;
        let t0 = Instant::now();
        for i in 0..RECORDS {
            hist.record(black_box(0.5 + (i % 64) as f64));
        }
        t.push(
            "hist_record",
            t0.elapsed().as_secs_f64() * 1e3 / RECORDS as f64,
        );
    });
}

// ---------------------------------------------------------------- service

/// The service rung, always on the 128² fan-in inputs. Returns the three
/// fan-in passes (1, 8 and all streams) and their failed frames.
fn service_rung(sp: &mut Spans, t: &mut Samples, small: &Inputs) -> (Vec<Pass>, usize) {
    let stream = &small.streams[0];
    let frames = stream.order.len();
    sp.timed("service_micro", "service", |_| {
        let queue = FrameQueue::new(frames, BackpressurePolicy::Block);
        let mut image = stream.frames[0].clone();
        const PAIRS: usize = 20_000;
        let t0 = Instant::now();
        for i in 0..PAIRS {
            queue.push(i, image);
            image = queue.pop().expect("queue holds the frame just pushed").1;
        }
        t.push(
            "queue_push_pop",
            t0.elapsed().as_secs_f64() * 1e3 / PAIRS as f64,
        );
        let cfg = workloads::service_config(frames);
        let widest = cfg.layout.shard_width(cfg.total_cores);
        let spec =
            StreamSpec::builder(stream.cfg.clone(), small.app.clone(), small.model.clone()).build();
        for _ in 0..100 {
            let t0 = Instant::now();
            black_box(predict_demand(&spec, widest, spec.admission));
            t.push("predict_demand", t0.elapsed().as_secs_f64() * 1e3);
        }
        for _ in 0..10 {
            let t0 = Instant::now();
            drop(ShardTopology::new(cfg.layout, cfg.total_cores));
            t.push("topology_new", t0.elapsed().as_secs_f64() * 1e3);
        }
    });

    // a single stream stepped with no service tier around it, for the
    // per-frame overhead of the tier
    let mut engine = workloads::new_engine(small, 0, None);
    for (k, &pos) in stream.order.iter().enumerate() {
        let t0 = Instant::now();
        if engine
            .step_on(StripePool::global(), k, &stream.frames[pos])
            .is_err()
        {
            break;
        }
        if !is_full(stream.scenarios[k]) {
            t.push("step_128", t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(engine.finish());

    let mut passes = Vec::new();
    let mut failed = 0;
    for streams in [1, 8, small.streams.len()] {
        let streams = streams.min(small.streams.len());
        let pass = sp
            .timed("service_pass", "service", |_| {
                workloads::service_pass(small, streams)
            })
            .0;
        failed += pass.failed;
        passes.push(pass);
    }
    (passes, failed)
}

// ----------------------------------------------------------------- report

/// Prints `child ≤ parent` with the residual named; a violated order or a
/// residual above `RESIDUAL_WARN` of the parent goes to standard error.
/// Timing noise can break the order, so neither fails the run.
fn layer_sum(child: (&str, f64), parent: (&str, f64), residual: &str) {
    let gap = parent.1 - child.1;
    let share = gap / parent.1.max(1e-9);
    println!(
        "# layer-sum: {} {:.3} ms <= {} {:.3} ms; residual {residual} = {gap:.3} ms ({:.1} % of parent)",
        child.0,
        child.1,
        parent.0,
        parent.1,
        share * 100.0
    );
    if gap < 0.0 {
        eprintln!(
            "warning: layer-sum violated: {} exceeds {}",
            child.0, parent.0
        );
    } else if share > RESIDUAL_WARN {
        eprintln!(
            "warning: residual {residual} is {:.1} % of {}",
            share * 100.0,
            parent.0
        );
    }
}

pub fn run(w: Workload, seed: u64, scale: &Scale) -> Result<Outcome, String> {
    let mut sp = Spans::new();
    let mut t = Samples::default();
    let mut attempted = 0;
    let mut failed = 0;

    let inputs = sp
        .leaf("build_inputs", "bench", || inputs::build(w, scale, seed))
        .0;
    failed += inputs.check(seed, scale, false)?;
    // the service rung and the 128² frame cost need the fan-in inputs
    // whatever the workload
    let small_owned = (w != Workload::Fanin).then(|| {
        sp.leaf("build_inputs_128", "bench", || {
            inputs::build(Workload::Fanin, scale, seed)
        })
        .0
    });
    let small = small_owned.as_ref().unwrap_or(&inputs);

    // the workload itself, untraced: warm-up, then the passes the health
    // and prediction metrics are read from
    let mut passes = Vec::new();
    for _ in 0..1 + scale.replay_rounds {
        let pass = sp
            .leaf("workload_pass", "bench", || {
                workloads::run_pass(&inputs, scale)
            })
            .0;
        attempted += pass.attempted;
        failed += pass.failed;
        passes.push(pass);
    }
    let passes = &passes[1..];

    let steps: usize = replayed(&inputs, scale).iter().map(|s| s.order.len()).sum();
    failed += sp
        .timed("imaging_rung", "imaging", |sp| {
            imaging_rung(sp, &mut t, &inputs, scale)
        })
        .0;
    failed += sp
        .timed("pipeline_rung", "pipeline", |sp| {
            pipeline_rung(sp, &mut t, &inputs, small, scale)
        })
        .0;
    attempted += 2 * steps;

    // interleaved, so that a slow stretch of the host falls on all three
    for _ in 0..scale.replay_rounds {
        for how in [Replay::Bare, Replay::Observed, Replay::Traced] {
            failed += replay(&mut sp, &mut t, &inputs, scale, how);
            attempted += steps;
        }
    }
    core_rung(&mut sp, &mut t, &inputs);
    platform_rung(&mut sp, &mut t);
    let (service, bad) = service_rung(&mut sp, &mut t, small);
    failed += bad;
    attempted += service.iter().map(|p| p.attempted).sum::<usize>();
    let fan = service.last().expect("three service passes");
    let tier = fan.service.clone().unwrap_or_default();

    let trace_path = format!("{}/out/trace_{}.json", env!("CARGO_MANIFEST_DIR"), w.name());
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&trace_path, sp.chrome_trace_json()));
    match written {
        Ok(()) => println!("# {} spans written to {trace_path}", sp.len()),
        Err(e) => eprintln!("warning: {trace_path}: {e}"),
    }

    let rdg_full_ms = t.median("rdg_full_direct");
    let rdg_full_bytes = inputs
        .model
        .memory_table()
        .iter()
        .find(|m| m.task == "RDG_FULL")
        .map_or(0, |m| m.total());
    let frame_roi = t.median("frame_roi");
    let frame_full = t.median("frame_full");
    let step_roi = t.median("step_roi");
    let step_full = t.median("step_full");
    layer_sum(
        ("imaging.kernel_sum_roi_ms", t.median("kernel_sum_roi")),
        ("pipeline.frame_roi_ms_p50", frame_roi),
        "pipeline.overhead (probe, scheduling, display allocation)",
    );
    layer_sum(
        ("pipeline.frame_roi_ms_p50", frame_roi),
        ("runtime.step_ms_p50", step_roi),
        "runtime.step_overhead (plan, absorb, bookkeeping)",
    );
    layer_sum(
        ("imaging.kernel_sum_full_ms", t.median("kernel_sum_full")),
        ("pipeline.frame_full_ms_p50", frame_full),
        "pipeline.overhead_full",
    );
    layer_sum(
        ("pipeline.frame_full_ms_p50", frame_full),
        ("runtime.step_full_ms_p50", step_full),
        "runtime.step_overhead_full",
    );

    let gen_late: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.gen_late_ms.iter().copied())
        .collect();
    let striped: usize = passes.iter().map(|p| p.striped_frames).sum();
    let submitted: usize = passes.iter().map(|p| p.attempted).sum();
    let accuracy: Vec<f64> = passes.iter().map(|p| p.pred_accuracy).collect();
    let coverage: Vec<f64> = passes.iter().map(|p| p.p95_coverage).collect();
    // median step with the extra against the median bare step, same steps
    let pct = |with: &str| {
        (t.median(with) - t.median("bare_step")) / t.median("bare_step").max(1e-9) * 100.0
    };
    let us = |name: &str| t.median(name) * 1e3;
    let ns = |name: &str| t.median(name) * 1e6;
    let m = |name: &'static str, sample: &str| metric(name, t.median(sample), "ms");

    let metrics: Vec<Metric> = vec![
        metric("xray.render_ms_per_frame", inputs.render_ms_per_frame, "ms"),
        metric("imaging.rdg_full_ms", rdg_full_ms, "ms"),
        m("imaging.rdg_full_2stripe_ms", "rdg_full_2stripe"),
        m("imaging.mkx_full_ms", "mkx_full_direct"),
        m("imaging.rdg_roi_ms", "rdg_roi"),
        m("imaging.mkx_roi_ms", "mkx_roi"),
        m("imaging.cpls_ms", "cpls"),
        m("imaging.reg_ms", "reg"),
        m("imaging.roi_est_ms", "roi_est"),
        m("imaging.gw_ms", "gw"),
        m("imaging.enh_acc_ms", "enh_acc"),
        m("imaging.enh_read_ms", "enh_read"),
        m("imaging.zoom_ms", "zoom"),
        m("imaging.kernel_sum_roi_ms", "kernel_sum_roi"),
        m("imaging.kernel_sum_full_ms", "kernel_sum_full"),
        // bytes from the paper's memory model, not a hardware counter
        metric(
            "imaging.rdg_full_gbps",
            rdg_full_bytes as f64 / 1e9 / (rdg_full_ms / 1e3).max(1e-12),
            "GB/s",
        ),
        metric("imaging.pool_roundtrip_us", us("pool_roundtrip"), "us"),
        metric("pipeline.frame_roi_ms_p50", frame_roi, "ms"),
        metric("pipeline.frame_full_ms_p50", frame_full, "ms"),
        m("pipeline.overhead_roi_ms", "overhead_roi"),
        m("pipeline.probe_ms", "probe"),
        m("pipeline.state_new_ms", "state_new"),
        metric(
            "pipeline.fullframe_frames",
            t.median("fullframe_frames"),
            "count",
        ),
        m("pipeline.frame_128_ms_p50", "frame_128"),
        metric("core.train_ms", inputs.train_ms, "ms"),
        metric("core.predict_frame_us", us("predict_frame"), "us"),
        metric("core.observe_us", us("observe"), "us"),
        metric("core.snapshot_us", us("snapshot"), "us"),
        metric("core.restore_us", us("restore"), "us"),
        metric("core.snapshot_bytes", t.median("snapshot_bytes"), "B"),
        metric("core.pred_accuracy_pct", median(&accuracy) * 100.0, "%"),
        metric("core.p95_coverage", median(&coverage), "ratio"),
        metric("platform.bus_emit_ns", ns("bus_emit"), "ns"),
        metric("platform.hist_record_ns", ns("hist_record"), "ns"),
        metric("platform.obs_overhead_pct", pct("observed_step"), "%"),
        metric("runtime.plan_us", us("plan"), "us"),
        metric("runtime.absorb_us", us("absorb"), "us"),
        metric("runtime.step_ms_p50", step_roi, "ms"),
        metric("runtime.step_overhead_ms", step_roi - frame_roi, "ms"),
        m("runtime.engine_new_ms", "engine_new"),
        m("runtime.engine_finish_ms", "engine_finish"),
        metric(
            "runtime.striped_share",
            striped as f64 / submitted.max(1) as f64,
            "ratio",
        ),
        metric("service.queue_push_pop_ns", ns("queue_push_pop"), "ns"),
        metric("service.predict_demand_us", us("predict_demand"), "us"),
        metric("service.topology_new_us", us("topology_new"), "us"),
        metric("service.spawn_ms", tier.spawn_ms, "ms"),
        metric("service.finish_ms", tier.finish_ms, "ms"),
        metric("service.evictions", tier.evictions as f64, "count"),
        metric("service.migrations", tier.migrations as f64, "count"),
        metric(
            "service.max_queue_depth",
            tier.max_queue_depth as f64,
            "count",
        ),
        // reported by the program, not timed from here
        metric(
            "service.admission_wait_ms_p95",
            percentile(&tier.admission_wait_ms, 0.95),
            "ms",
        ),
        metric("service.fps_1", service[0].fps(), "1/s"),
        metric("service.fps_8", service[1].fps(), "1/s"),
        metric("service.fps_64", fan.fps(), "1/s"),
        metric(
            "service.overhead_ms_per_frame",
            fan.cpu_ms / fan.frames.max(1) as f64 - t.median("step_128"),
            "ms",
        ),
        metric("bench.gen_late_ms_p95", percentile(&gen_late, 0.95), "ms"),
        metric("bench.trace_overhead_pct", pct("traced_frame"), "%"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
